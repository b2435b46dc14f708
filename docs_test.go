package pingmesh

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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
)

// TestDocsResolve keeps the docs honest about the code: in the code spans
// and code blocks of the four top-level docs, every internal/ path must
// exist, and every pkg.Exported whose pkg is an internal package must be
// a top-level declaration or a method of that package.
func TestDocsResolve(t *testing.T) {
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
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			spans := docCodeSpan.FindAllString(line, -1)
			if fenced {
				spans = []string{line}
			}
			for _, span := range spans {
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
