package pingmesh

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// docCodeSpan is an inline code span on one line.
	docCodeSpan = regexp.MustCompile("`[^`\n]+`")
	// docInternalPath is a repository path under internal/.
	docInternalPath = regexp.MustCompile(`internal/[A-Za-z0-9_./*-]*[A-Za-z0-9_*]`)
	// docQualified is pkg.Exported, not itself the tail of a selector.
	docQualified = regexp.MustCompile(`(?:^|[^\w.])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	// docPRNumber is a pull request cited by number: history, which lives in
	// CHANGES.md.
	docPRNumber = regexp.MustCompile(`\bPRs? #?[0-9]+`)
	// docTestName is a test, benchmark or fuzz target named in prose.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*`)
	// testFuncDecl is the declaration of a test, benchmark, fuzz target or
	// example in a _test.go file.
	testFuncDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
)

// TestDocsResolve keeps the docs honest about the code: in the code spans
// and code blocks of the four top-level docs, every internal/ path must
// exist; every pkg.Exported whose pkg is an internal package must be a
// top-level declaration or a method of that package; every Test…,
// Benchmark… or Fuzz… name must be declared in some _test.go file; and in
// a go test command, each alternative of a -run, -bench or -fuzz pattern
// must match a function of its kind in the packages the command names.
// Outside PAPER.md no line cites a PR by number: the docs describe the tree
// as it is, and CHANGES.md keeps its history.
func TestDocsResolve(t *testing.T) {
	tests := testFuncs(t)
	anyTest := map[string]bool{}
	for _, names := range tests {
		for _, n := range names {
			anyTest[n] = true
		}
	}

	declared := map[string]map[string]bool{} // internal package → its top-level and method names
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, d := range dirs {
		files, _ := filepath.Glob(filepath.Join("internal", d.Name(), "*.go"))
		if !d.IsDir() || len(files) == 0 {
			continue
		}
		names := map[string]bool{}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl: // methods too: docs write pkg.Method for (*pkg.T).Method
					names[decl.Name.Name] = true
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names[spec.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
		declared[d.Name()] = names
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if pr := docPRNumber.FindString(line); pr != "" && doc != "PAPER.md" {
				t.Errorf("%s:%d: cites %s; history belongs in CHANGES.md", doc, i+1, pr)
			}
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			spans := docCodeSpan.FindAllString(line, -1)
			if fenced {
				spans = []string{line}
			}
			for _, span := range spans {
				span, cmds := goTestCommands(span)
				for _, cmd := range cmds {
					for _, msg := range cmd.unmatched(tests) {
						t.Errorf("%s:%d: %s", doc, i+1, msg)
					}
				}
				for _, name := range docTestName.FindAllString(span, -1) {
					if !anyTest[name] {
						t.Errorf("%s:%d: %s is declared in no _test.go file", doc, i+1, name)
					}
				}
				for _, path := range docInternalPath.FindAllString(span, -1) {
					if m, _ := filepath.Glob(path); len(m) == 0 {
						t.Errorf("%s:%d: %s does not exist", doc, i+1, path)
					}
				}
				for _, m := range docQualified.FindAllStringSubmatch(span, -1) {
					if names, ok := declared[m[1]]; ok && !names[m[2]] {
						t.Errorf("%s:%d: %s.%s is not declared in internal/%s", doc, i+1, m[1], m[2], m[1])
					}
				}
			}
		}
	}
}

// TestDesignCoversEveryPackage keeps DESIGN.md's stage map whole: each
// stage section opens with a code block listing its packages, and every
// package under internal/ is listed by exactly one section.
func TestDesignCoversEveryPackage(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	listedIn := map[string][]string{} // package → the sections listing it
	for _, section := range strings.Split(string(data), "\n## ")[1:] {
		heading, body, _ := strings.Cut(section, "\n")
		body = strings.TrimLeft(body, "\n")
		if !strings.HasPrefix(body, "```\n") {
			continue // not a stage section
		}
		opener, _, _ := strings.Cut(body[len("```\n"):], "```")
		for _, line := range strings.Split(opener, "\n") {
			if pkg, ok := strings.CutPrefix(line, "internal/"); ok {
				pkg, _, _ = strings.Cut(pkg, " ")
				listedIn[pkg] = append(listedIn[pkg], heading)
			}
		}
	}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() && len(listedIn[d.Name()]) != 1 {
			t.Errorf("internal/%s is listed by %d DESIGN.md sections %q, want exactly one", d.Name(), len(listedIn[d.Name()]), listedIn[d.Name()])
		}
		delete(listedIn, d.Name())
	}
	for pkg, sections := range listedIn {
		t.Errorf("DESIGN.md sections %q list internal/%s, which does not exist", sections, pkg)
	}
}

// testFuncs maps each directory of the repository that holds _test.go files
// ("." for the root, "bench/..." inside the benchmark module) to the tests,
// benchmarks, fuzz targets and examples declared there.
func testFuncs(t *testing.T) map[string][]string {
	funcs := map[string][]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncDecl.FindAllStringSubmatch(string(data), -1) {
			funcs[filepath.Dir(path)] = append(funcs[filepath.Dir(path)], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// goTestCmd is a go test command written in a doc: the directories of the
// packages it names and its -run, -bench and -fuzz patterns.
type goTestCmd struct {
	dirs     []string
	patterns map[string]string // flag name → pattern
}

// goTestCommands returns span with the patterns of its go test commands
// cut out (a pattern such as BenchmarkServe is a prefix, not a name) and
// the commands themselves. A command ends at a shell operator or comment;
// a preceding "cd dir &&" moves where its packages are found.
func goTestCommands(span string) (string, []goTestCmd) {
	var cmds []goTestCmd
	words := shellWords(span)
	base := "."
	for i := 0; i < len(words); i++ {
		if words[i] == "cd" && i+1 < len(words) {
			base = filepath.Join(base, words[i+1])
		}
		if words[i] != "go" || i+1 >= len(words) || words[i+1] != "test" {
			continue
		}
		cmd := goTestCmd{patterns: map[string]string{}}
		for i += 2; i < len(words) && !strings.ContainsAny(words[i][:1], "|&;)#>"); i++ {
			w := words[i]
			flag, val, hasVal := strings.Cut(strings.TrimLeft(w, "-"), "=")
			switch {
			case strings.HasPrefix(w, "-") && (flag == "run" || flag == "bench" || flag == "fuzz"):
				if !hasVal && i+1 < len(words) {
					i++
					val = words[i]
				}
				cmd.patterns[flag] = val
				span = strings.Replace(span, val, "", 1)
			case w == "." || strings.HasPrefix(w, "./"):
				cmd.dirs = append(cmd.dirs, filepath.Join(base, w))
			}
		}
		if len(cmd.dirs) == 0 {
			cmd.dirs = []string{base}
		}
		cmds = append(cmds, cmd)
	}
	return span, cmds
}

// shellWords splits a command line into words, honouring single and
// double quotes; an operator character is a word of its own, and the
// backticks of a code span separate words.
func shellWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord, quote := false, byte(0)
	flush := func() {
		if inWord {
			words = append(words, cur.String())
		}
		cur.Reset()
		inWord = false
	}
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, inWord = c, true
		case c == ' ' || c == '\t' || c == '`':
			flush()
		case strings.IndexByte("|&;()#>", c) >= 0:
			flush()
			words = append(words, string(c))
		default:
			cur.WriteByte(c)
			inWord = true
		}
	}
	flush()
	return words
}

// unmatched reports each pattern alternative of the command that matches
// no function of its kind in the command's packages. "^$", the idiom that
// selects no test, is exempt.
func (c goTestCmd) unmatched(tests map[string][]string) []string {
	var msgs []string
	kinds := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	for flag, pattern := range c.patterns {
		if pattern == "^$" {
			continue
		}
		var funcs []string
		for d, names := range tests {
			if !c.names(d) {
				continue
			}
			for _, n := range names {
				for _, k := range kinds[flag] {
					if strings.HasPrefix(n, k) {
						funcs = append(funcs, n)
					}
				}
			}
		}
		for _, alt := range splitTopLevel(pattern, '|') {
			top := splitTopLevel(alt, '/')[0]
			re, err := regexp.Compile(top)
			if err != nil {
				msgs = append(msgs, fmt.Sprintf("-%s %q: %v", flag, pattern, err))
				continue
			}
			if !slices.ContainsFunc(funcs, re.MatchString) {
				msgs = append(msgs, fmt.Sprintf("-%s alternative %q matches nothing in %s", flag, alt, strings.Join(c.dirs, " ")))
			}
		}
	}
	return msgs
}

// names reports whether the command names the package in directory d,
// itself or through a /... pattern.
func (c goTestCmd) names(d string) bool {
	for _, dir := range c.dirs {
		if root, ok := strings.CutSuffix(dir, "..."); ok {
			root = strings.TrimSuffix(root, "/")
			if root == "" || d == root || strings.HasPrefix(d, root+"/") {
				return true
			}
		} else if d == dir {
			return true
		}
	}
	return false
}

// splitTopLevel splits a regexp at each sep outside parentheses and
// brackets.
func splitTopLevel(re string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, re[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, re[start:])
}
