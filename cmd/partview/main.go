// Command partview inspects what the partitioners do to a hierarchy
// snapshot: it evolves the RM3D oracle workload for a number of regrids,
// partitions the resulting bounding-box list with every scheme at the given
// capacities, and prints per-node assignments side by side.
//
//	go run ./cmd/partview -caps 0.16,0.19,0.31,0.34 -regrids 3
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"samrpart/internal/amr"
	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/geom"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

func parseCaps(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	caps := make([]float64, 0, len(parts))
	sum := 0.0
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad capacity %q: %w", p, err)
		}
		caps = append(caps, v)
		sum += v
	}
	if sum <= 0 {
		return nil, fmt.Errorf("capacities sum to %g", sum)
	}
	for i := range caps {
		caps[i] /= sum
	}
	return caps, nil
}

func main() {
	var (
		capsArg = flag.String("caps", "0.16,0.19,0.31,0.34", "comma-separated relative capacities (normalized)")
		regrids = flag.Int("regrids", 3, "oracle regrids to evolve before snapshotting")
		boxes   = flag.Bool("boxes", false, "list every box with its owner")
		grid    = flag.Bool("grid", false, "render an ASCII view of the refinement levels (x-y slice)")
	)
	flag.Parse()
	caps, err := parseCaps(*capsArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "partview:", err)
		os.Exit(2)
	}
	// Evolve the hierarchy.
	h, err := amr.New(exp.RM3DHierarchy())
	if err != nil {
		fmt.Fprintln(os.Stderr, "partview:", err)
		os.Exit(1)
	}
	oracle := engine.NewRM3DOracle()
	for r := 0; r < *regrids; r++ {
		flags, err := oracle.Flags(h, r*5)
		if err != nil {
			fmt.Fprintln(os.Stderr, "partview:", err)
			os.Exit(1)
		}
		if err := h.Regrid(flags); err != nil {
			fmt.Fprintln(os.Stderr, "partview:", err)
			os.Exit(1)
		}
	}
	list := h.AllBoxes()
	work := partition.SubcycledWork(h.Config().RefineRatio)
	fmt.Printf("hierarchy: %d levels, %d boxes, total work %d\n",
		h.NumLevels(), len(list), h.TotalWork())
	fmt.Print(h.Describe())
	fmt.Println()
	if *grid {
		renderGrid(h)
	}

	partitioners := []partition.Partitioner{
		partition.NewHetero(),
		partition.NewComposite(h.Config().RefineRatio),
		partition.NewSFCHetero(h.Config().RefineRatio),
		partition.NewLevelWise(h.Config().RefineRatio),
		partition.NewHierarchical(h.Config().RefineRatio),
		partition.Greedy{},
		partition.RoundRobin{},
	}
	tab := runlog.NewTable("per-node assigned work (ideal share in parentheses)",
		append([]string{"partitioner"}, nodeLabels(len(caps))...)...)
	for _, p := range partitioners {
		a, err := p.Partition(list, caps, work)
		if err != nil {
			fmt.Fprintf(os.Stderr, "partview: %s: %v\n", p.Name(), err)
			os.Exit(1)
		}
		cells := make([]string, 0, 1+len(caps))
		cells = append(cells, p.Name())
		for k := range caps {
			cells = append(cells, fmt.Sprintf("%.0f (%.0f)", a.Work[k], a.Ideal[k]))
		}
		tab.Add(cells...)
		if *boxes {
			fmt.Printf("-- %s (%d boxes, max imbalance %.1f%%)\n", p.Name(), len(a.Boxes), a.MaxImbalance())
			for i, b := range a.Boxes {
				fmt.Printf("   %v -> node %d (work %.0f)\n", b, a.Owners[i], work(b))
			}
		}
	}
	if err := tab.Render(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "partview:", err)
		os.Exit(1)
	}
}

func nodeLabels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("P%d", i)
	}
	return out
}

// renderGrid prints the deepest refinement level covering each base cell of
// the mid-z x-y slice ('.' = level 0 only).
func renderGrid(h *amr.Hierarchy) {
	dom := h.Config().Domain
	ratio := h.Config().RefineRatio
	midZ := (dom.Lo[2] + dom.Hi[2]) / 2
	fmt.Printf("refinement map (x-y slice at z=%d; digit = deepest level):\n", midZ)
	for y := dom.Hi[1]; y >= dom.Lo[1]; y-- {
		line := make([]byte, 0, dom.Size(0))
		for x := dom.Lo[0]; x <= dom.Hi[0]; x++ {
			deepest := 0
			for l := h.NumLevels() - 1; l >= 1; l-- {
				// Base cell (x,y,midZ) refined to level l.
				pt := geom.Pt3(x, y, midZ)
				scale := 1
				for i := 0; i < l; i++ {
					scale *= ratio
				}
				fine := pt.Scale(scale)
				covered := false
				for _, b := range h.Level(l) {
					if b.Contains(fine) {
						covered = true
						break
					}
				}
				if covered {
					deepest = l
					break
				}
			}
			if deepest == 0 {
				line = append(line, '.')
			} else {
				line = append(line, byte('0'+deepest%10))
			}
		}
		fmt.Println(string(line))
	}
	fmt.Println()
}
