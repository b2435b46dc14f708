// Package viz renders the Pingmesh visualization of §6.3: a pod-pair
// matrix where each cell is the 99th-percentile latency between a source
// and destination pod, colored green (healthy), yellow (borderline), red
// (out of SLA) or white (no data) — and classifies the four canonical
// patterns of Figure 8: all-green (normal), white-cross (podset down),
// red-cross (podset network failure), and red-with-green-diagonal (spine
// layer failure).
package viz

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"pingmesh/internal/analysis"
	"pingmesh/internal/topology"
)

// Color buckets for a cell, using the paper's thresholds: green below 4ms,
// yellow 4-5ms, red above 5ms, white for no data.
type Color int

// Cell colors.
const (
	White Color = iota
	Green
	Yellow
	Red
)

// Paper thresholds for the P99 heatmap.
const (
	GreenBelow = 4 * time.Millisecond
	RedAbove   = 5 * time.Millisecond
)

// String names the color.
func (c Color) String() string {
	switch c {
	case White:
		return "white"
	case Green:
		return "green"
	case Yellow:
		return "yellow"
	case Red:
		return "red"
	default:
		return fmt.Sprintf("color(%d)", int(c))
	}
}

// rune for ASCII rendering.
func (c Color) rune() byte {
	switch c {
	case Green:
		return 'G'
	case Yellow:
		return 'Y'
	case Red:
		return 'R'
	default:
		return '.'
	}
}

// Cell is one pod pair's latency summary.
type Cell struct {
	P99     time.Duration
	Probes  uint64
	HasData bool
}

// Color classifies the cell.
func (c Cell) Color() Color {
	if !c.HasData {
		return White
	}
	switch {
	case c.P99 < GreenBelow:
		return Green
	case c.P99 <= RedAbove:
		return Yellow
	default:
		return Red
	}
}

// Heatmap is the pod-pair matrix for one DC.
type Heatmap struct {
	DC      string
	Pods    []analysis.PodRef // row/column order: podset-major
	Podsets []int             // podset index per pod position
	Cells   [][]Cell          // [src][dst]
}

// BuildHeatmap assembles the matrix for DC dc from pod-pair grouped stats
// (the output of a SCOPE job keyed by Keyer.AppendPodPair). Cells with fewer
// than minProbes successful probes count as having no data.
func BuildHeatmap(top *topology.Topology, dc int, groups map[string]*analysis.LatencyStats, minProbes uint64) *Heatmap {
	var pods []analysis.PodRef
	var podsets []int
	index := map[analysis.PodRef]int{}
	for psi := range top.DCs[dc].Podsets {
		for qi := range top.DCs[dc].Podsets[psi].Pods {
			ref := analysis.PodRef{DC: dc, Podset: psi, Pod: qi}
			index[ref] = len(pods)
			pods = append(pods, ref)
			podsets = append(podsets, psi)
		}
	}
	h := &Heatmap{DC: top.DCs[dc].Name, Pods: pods, Podsets: podsets}
	h.Cells = make([][]Cell, len(pods))
	for i := range h.Cells {
		h.Cells[i] = make([]Cell, len(pods))
	}
	for key, st := range groups {
		src, dst, err := analysis.SplitPodPair(key)
		if err != nil {
			continue
		}
		i, ok1 := index[src]
		j, ok2 := index[dst]
		if !ok1 || !ok2 {
			continue // different DC or stale topology
		}
		if st.Success() < minProbes {
			continue
		}
		cell := &h.Cells[i][j]
		// Merge multiple keys mapping to one cell conservatively: keep the
		// worse P99.
		p99 := st.Percentile(0.99)
		if !cell.HasData || p99 > cell.P99 {
			cell.P99 = p99
		}
		cell.Probes += st.Success()
		cell.HasData = true
	}
	return h
}

// Size returns the matrix dimension.
func (h *Heatmap) Size() int { return len(h.Pods) }

// Color returns the color of cell (src, dst).
func (h *Heatmap) Color(i, j int) Color { return h.Cells[i][j].Color() }

// RenderASCII draws the matrix: one row per source pod, G/Y/R/. per cell,
// with blank separators at podset boundaries.
func (h *Heatmap) RenderASCII() string {
	var b strings.Builder
	fmt.Fprintf(&b, "P99 heatmap %s (%d pods): G<%v Y<=%v R>%v .=no data\n",
		h.DC, len(h.Pods), GreenBelow, RedAbove, RedAbove)
	for i := range h.Cells {
		if i > 0 && h.Podsets[i] != h.Podsets[i-1] {
			b.WriteByte('\n')
		}
		for j := range h.Cells[i] {
			if j > 0 && h.Podsets[j] != h.Podsets[j-1] {
				b.WriteByte(' ')
			}
			b.WriteByte(h.Color(i, j).rune())
		}
		fmt.Fprintf(&b, "  %s\n", h.Pods[i])
	}
	return b.String()
}

// svgFill maps a cell color to its SVG fill, indexable by Color.
var svgFill = [...]string{White: "#ffffff", Green: "#2e7d32", Yellow: "#f9a825", Red: "#c62828"}

// AppendSVG appends the matrix as a standalone SVG document to dst and
// returns the extended slice — the append-style form the portal's render
// cache writes straight into its body buffer, with no intermediate string
// concatenation. Output is byte-identical to RenderSVG (golden-tested).
func (h *Heatmap) AppendSVG(dst []byte) []byte {
	const cell = 12
	n := len(h.Pods)
	dst = append(dst, `<svg xmlns="http://www.w3.org/2000/svg" width="`...)
	dst = strconv.AppendInt(dst, int64(n*cell+2), 10)
	dst = append(dst, `" height="`...)
	dst = strconv.AppendInt(dst, int64(n*cell+2), 10)
	dst = append(dst, `">`...)
	dst = append(dst, '\n')
	for i := range h.Cells {
		for j := range h.Cells[i] {
			c := h.Cells[i][j]
			dst = append(dst, `<rect x="`...)
			dst = strconv.AppendInt(dst, int64(j*cell+1), 10)
			dst = append(dst, `" y="`...)
			dst = strconv.AppendInt(dst, int64(i*cell+1), 10)
			dst = append(dst, `" width="`...)
			dst = strconv.AppendInt(dst, cell, 10)
			dst = append(dst, `" height="`...)
			dst = strconv.AppendInt(dst, cell, 10)
			dst = append(dst, `" fill="`...)
			dst = append(dst, svgFill[h.Color(i, j)]...)
			dst = append(dst, `" stroke="#ddd"><title>`...)
			dst = h.Pods[i].AppendTo(dst)
			dst = append(dst, `-&gt;`...)
			dst = h.Pods[j].AppendTo(dst)
			dst = append(dst, ':', ' ')
			if c.HasData {
				dst = append(dst, c.P99.String()...)
			} else {
				dst = append(dst, "no data"...)
			}
			dst = append(dst, `</title></rect>`...)
			dst = append(dst, '\n')
		}
	}
	dst = append(dst, "</svg>\n"...)
	return dst
}

// WriteSVG writes the SVG document to w.
func (h *Heatmap) WriteSVG(w io.Writer) (int, error) {
	return w.Write(h.AppendSVG(nil))
}

// RenderSVG draws the matrix as a standalone SVG document.
func (h *Heatmap) RenderSVG() string {
	return string(h.AppendSVG(nil))
}
