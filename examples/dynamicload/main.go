// Dynamic load sensing: background load ramps up on two nodes during the
// run; the monitor re-senses every 20 iterations and the partitioner
// redistributes. Prints a live view of capacities and assignments, plus the
// cost of ignoring the dynamics (sense-once on the same script) — the
// Figure 11 / Table II story.
package main

import (
	"fmt"
	"log"

	"samrpart/internal/cluster"
	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/partition"
	"samrpart/internal/runlog"
)

func loads(c *cluster.Cluster) {
	c.Node(0).AddLoad(cluster.Ramp{Start: 15, Rate: 0.02, Target: 0.75, MemTargetMB: 160})
	c.Node(1).AddLoad(cluster.Ramp{Start: 60, Rate: 0.02, Target: 0.55, MemTargetMB: 110})
}

func run(senseEvery int) *runlog.RunTrace {
	clus, err := cluster.New(cluster.Uniform(4, cluster.LinuxWorkstation()), cluster.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	loads(clus)
	e, err := engine.New(engine.Config{
		Name:        fmt.Sprintf("sense-every-%d", senseEvery),
		Hierarchy:   exp.RM3DHierarchy(),
		App:         engine.NewRM3DOracle(),
		Partitioner: partition.NewHetero(),
		Iterations:  120,
		RegridEvery: 5,
		SenseEvery:  senseEvery,
	}, clus)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	return tr
}

func main() {
	dynamic := run(20)
	fmt.Println("dynamic sensing (every 20 iterations):")
	var prevCaps []float64
	for _, rec := range dynamic.Records {
		capsNote := ""
		if prevCaps == nil || capsChanged(prevCaps, rec.Caps) {
			capsNote = fmt.Sprintf("   <- capacities now %.0f%% %.0f%% %.0f%% %.0f%%",
				rec.Caps[0]*100, rec.Caps[1]*100, rec.Caps[2]*100, rec.Caps[3]*100)
			prevCaps = rec.Caps
		}
		fmt.Printf("  t=%6.1fs regrid %2d: work %7.0f %7.0f %7.0f %7.0f%s\n",
			rec.VirtualTime, rec.Regrid, rec.Work[0], rec.Work[1], rec.Work[2], rec.Work[3], capsNote)
	}
	fmt.Println("\n" + dynamic.Summary())

	static := run(0)
	fmt.Println(static.Summary())
	fmt.Printf("\ndynamic sensing is %.1f%% faster than sensing once (paper Table II: 35-48%%)\n",
		(static.ExecTime-dynamic.ExecTime)/static.ExecTime*100)
}

func capsChanged(a, b []float64) bool {
	for i := range a {
		d := a[i] - b[i]
		if d > 1e-12 || d < -1e-12 {
			return true
		}
	}
	return false
}
