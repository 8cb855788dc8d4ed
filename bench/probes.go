package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"samrpart/internal/amr"
	"samrpart/internal/capacity"
	"samrpart/internal/checkpoint"
	"samrpart/internal/engine"
	"samrpart/internal/exp"
	"samrpart/internal/geom"
	"samrpart/internal/hdda"
	"samrpart/internal/monitor"
	otrace "samrpart/internal/obs/trace"
	"samrpart/internal/partition"
	"samrpart/internal/sfc"
	"samrpart/internal/solver"
	"samrpart/internal/transport"
)

// A layer probe (source P) is a direct timed call into one layer's public
// function on a fixed input. Probes do not depend on the workload or the
// seed; they run once per traced invocation and give each layer its own
// number, so a later change can say which layer it moved.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// probeQuick shrinks every probe to a single short sample. Only the smoke
// test sets it: it checks that each probe runs and reports, not what.
var probeQuick bool

// sized returns n, or small under probeQuick.
func sized(n, small int) int {
	if probeQuick {
		return small
	}
	return n
}

// perCall returns the median over reps samples of the seconds one call of fn
// takes, each sample timing n back-to-back calls.
func perCall(reps, n int, fn func()) float64 {
	reps, n = sized(reps, 1), sized(n, 1)
	fn() // warm caches and lazy allocations
	samples := make([]float64, reps)
	for i := range samples {
		t0 := time.Now()
		for j := 0; j < n; j++ {
			fn()
		}
		samples[i] = time.Since(t0).Seconds() / float64(n)
	}
	return median(samples)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// machineInfo describes the box; the strings go to the results file, the
// numbers are per-layer metrics.
type machineInfo struct {
	CPUModel    string  `json:"cpu_model"`
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	LLCBytes    int64   `json:"llc_bytes"`
	TriadArrayB int64   `json:"triad_array_bytes"`
	TriadLabel  string  `json:"triad_label"`
	TriadGBps   float64 `json:"triad_GBps"`
	PeakGFLOPs  float64 `json:"peak_GFLOPs"`
	OS          string  `json:"os"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// llcBytes reads the largest cache of cpu0 from sysfs (0 if unreadable).
func llcBytes() int64 {
	var best int64
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

// probeMachine measures the roofline's two ceilings in this run: STREAM
// triad bandwidth and the scalar float64 multiply-add rate of one core.
func probeMachine() machineInfo {
	m := machineInfo{
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		LLCBytes:   llcBytes(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
		TriadLabel: "beyond-cache",
	}
	llc := m.LLCBytes
	if llc == 0 {
		llc = 32 << 20 // unreadable sysfs: assume a large server LLC
	}
	// The rule is arrays of 4× the last-level cache. A virtual machine
	// reports its host's whole socket cache (260 MB on the reference box),
	// and first-touch page faults there cost microseconds each, so the
	// arrays are capped at 64 MiB and the result labelled when the cap bites.
	arrayB := 4 * llc
	if limit := int64(sized(64<<20, 1<<20)); arrayB > limit {
		arrayB = limit
		m.TriadLabel = "cache-assisted"
	}
	m.TriadArrayB = arrayB
	n := int(arrayB / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = 1, 2
	}
	sec := perCall(3, 1, func() {
		const s = 3.0
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
	})
	sink += a[n/2]
	m.TriadGBps = 3 * float64(arrayB) / sec / 1e9

	// Eight independent multiply-add chains: enough to fill the FP pipes of
	// a scalar core without vector code.
	flopIters := sized(1<<21, 1<<12)
	sec = perCall(3, 1, func() {
		x0, x1, x2, x3, x4, x5, x6, x7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
		const m, k = 0.999999, 1e-9
		for i := 0; i < flopIters; i++ {
			x0 = x0*m + k
			x1 = x1*m + k
			x2 = x2*m + k
			x3 = x3*m + k
			x4 = x4*m + k
			x5 = x5*m + k
			x6 = x6*m + k
			x7 = x7*m + k
		}
		sink += x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7
	})
	m.PeakGFLOPs = 16 * float64(flopIters) / sec / 1e9
	return m
}

// probes returns every P metric by name.
func probes(dir string) (map[string]float64, machineInfo, error) {
	out := map[string]float64{}
	mi := probeMachine()
	out["machine.triad_GBps"] = mi.TriadGBps
	out["machine.peak_GFLOPs"] = mi.PeakGFLOPs
	out["machine.nproc"] = float64(mi.NProc)
	out["machine.gomaxprocs"] = float64(mi.GOMAXPROCS)
	probeSolver(out, mi)
	if err := probeTransport(out); err != nil {
		return nil, mi, fmt.Errorf("transport probes: %w", err)
	}
	if err := probePartition(out); err != nil {
		return nil, mi, fmt.Errorf("partition probes: %w", err)
	}
	if err := probeAMR(out); err != nil {
		return nil, mi, fmt.Errorf("amr probes: %w", err)
	}
	if err := probeCheckpoint(out, dir); err != nil {
		return nil, mi, fmt.Errorf("checkpoint probes: %w", err)
	}
	if err := probeControl(out); err != nil {
		return nil, mi, fmt.Errorf("control probes: %w", err)
	}
	probeIndexing(out)
	if err := probeObs(out); err != nil {
		return nil, mi, fmt.Errorf("obs probes: %w", err)
	}
	return out, mi, nil
}

// stepRate times k.Step on one patch and returns Mcell updates per second.
func stepRate(k solver.Kernel, box geom.Box, h float64, reps int) float64 {
	g := solver.UniformGrid(h)
	cur := amr.NewPatch(box, k.Ghost(), k.NumFields())
	next := amr.NewPatch(box, k.Ghost(), k.NumFields())
	k.Init(cur, g)
	solver.ApplyOutflowBC(cur)
	dt := k.MaxDT(cur, g)
	sec := perCall(reps, 1, func() { k.Step(next, cur, g, dt) })
	sink += next.At(0, box.Lo)
	return float64(box.Cells()) / sec / 1e6
}

func probeSolver(out map[string]float64, mi machineInfo) {
	euler := solver.NewRichtmyerMeshkov([geom.MaxDim]float64{1, 1, 1})
	rate := stepRate(euler, geom.Box3(0, 0, 0, 31, 31, 31), 1.0/32, 5)
	out["solver.euler3d_mcells_s"] = rate
	out["solver.muscl3d_mcells_s"] = stepRate(solver.NewMUSCLAdvection3D(1, 0.5, 0.25, 0.5, 0.5, 0.5, 0.1), geom.Box3(0, 0, 0, 31, 31, 31), 1.0/32, 5)
	out["solver.advect2d_mcells_s"] = stepRate(solver.NewAdvection2D(1, 0.5, 0.5, 0.5, 0.1), geom.Box2(0, 0, 255, 255), 1.0/256, 7)
	// Computed, not measured, traffic: every field read once and written
	// once per cell update; cache misses are ignored.
	bytesPerCell := float64(2 * 8 * euler.NumFields())
	out["solver.euler3d_GBps_computed"] = rate * 1e6 * bytesPerCell / 1e9
	intensity := euler.FlopsPerCell() / bytesPerCell
	out["solver.euler3d_flops_per_B_computed"] = intensity
	achieved := rate * 1e6 * euler.FlopsPerCell() / 1e9
	roof := math.Min(mi.PeakGFLOPs, mi.TriadGBps*intensity)
	out["solver.euler3d_roofline_share"] = achieved / roof

	// ApplyOutflowBC on a halo-latency sized tile: bytes are the halo cells
	// written, one read and one write each.
	p := amr.NewPatch(geom.Box2(0, 0, 7, 7), 1, 1)
	halo := float64(p.Padded().Cells() - p.Box.Cells())
	sec := perCall(7, 2000, func() { solver.ApplyOutflowBC(p) })
	out["solver.outflowbc_GBps"] = halo * 16 / sec / 1e9
}

// pingPong returns the median round-trip time in µs of a size-byte message
// between ranks 0 and 1.
func pingPong(eps []transport.Endpoint, size, rounds int) (float64, error) {
	payload := make([]byte, size)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			p, err := eps[1].Recv(0, "ping")
			if err == nil {
				err = eps[1].Send(0, "pong", p)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	samples := make([]float64, 0, rounds)
	var firstErr error
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := eps[0].Send(1, "ping", payload); err != nil {
			firstErr = err
			break
		}
		if _, err := eps[0].Recv(1, "pong"); err != nil {
			firstErr = err
			break
		}
		samples = append(samples, time.Since(t0).Seconds()*1e6)
	}
	if firstErr != nil {
		return 0, firstErr
	}
	if err := <-errc; err != nil {
		return 0, err
	}
	// Drop the first tenth: connection and inbox warm-up.
	return median(samples[len(samples)/10:]), nil
}

// stream returns the median MB/s of three batches of n one-way 1 MiB
// messages, each batch acknowledged at its end.
func stream(eps []transport.Endpoint, n int) (float64, error) {
	var rates []float64
	for batch := 0; batch < sized(3, 1); batch++ {
		r, err := streamBatch(eps, n)
		if err != nil {
			return 0, err
		}
		rates = append(rates, r)
	}
	return median(rates), nil
}

func streamBatch(eps []transport.Endpoint, n int) (float64, error) {
	const size = 1 << 20
	payload := make([]byte, size)
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := eps[1].Recv(0, "bulk"); err != nil {
				errc <- err
				return
			}
		}
		errc <- eps[1].Send(0, "ack", nil)
	}()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := eps[0].Send(1, "bulk", payload); err != nil {
			return 0, err
		}
	}
	if _, err := eps[0].Recv(1, "ack"); err != nil {
		return 0, err
	}
	sec := time.Since(t0).Seconds()
	if err := <-errc; err != nil {
		return 0, err
	}
	return float64(n) * size / sec / 1e6, nil
}

func probeTransport(out map[string]float64) error {
	for _, kind := range []string{"chan", "tcp"} {
		var eps []transport.Endpoint
		var err error
		rounds, msgs := sized(2000, 20), sized(8, 2)
		if kind == "tcp" {
			eps, err = transport.NewTCPGroup(2, "127.0.0.1")
			rounds, msgs = sized(600, 20), sized(8, 2)
		} else {
			eps, err = transport.NewGroup(2)
		}
		if err != nil {
			return err
		}
		closeAll := func() {
			for _, ep := range eps {
				ep.Close()
			}
		}
		for _, sz := range []struct {
			name string
			n    int
		}{{"64B", 64}, {"8K", 8 << 10}} {
			us, err := pingPong(eps, sz.n, rounds)
			if err != nil {
				closeAll()
				return err
			}
			out["transport."+kind+"_pingpong_"+sz.name+"_us"] = us
		}
		mbps, err := stream(eps, msgs)
		if err != nil {
			closeAll()
			return err
		}
		out["transport."+kind+"_stream_MBps"] = mbps
		if kind == "tcp" {
			// The per-step dt agreement of the SPMD loop.
			rounds := sized(400, 10)
			errc := make(chan error, 1)
			go func() {
				var err error
				for i := 0; i < rounds && err == nil; i++ {
					_, err = transport.AllReduceFloat64(eps[1], 1, transport.ReduceMin)
				}
				errc <- err
			}()
			t0 := time.Now()
			for i := 0; i < rounds && err == nil; i++ {
				_, err = transport.AllReduceFloat64(eps[0], 2, transport.ReduceMin)
			}
			us := time.Since(t0).Seconds() / float64(rounds) * 1e6
			if e := <-errc; err == nil {
				err = e
			}
			if err != nil {
				closeAll()
				return err
			}
			out["transport.allreduce_us"] = us
		}
		closeAll()
	}

	// Coalesced-frame codec on a halo-exchange shaped frame: 64 regions of
	// 8 values plus one bulk region.
	var regions []transport.FrameRegion
	var vals []float64
	for i := 0; i < 64; i++ {
		regions = append(regions, transport.FrameRegion{Dst: uint32(i), Src: uint32(i + 1), Hi: [3]int32{7, 0, 0}, Count: 8})
	}
	regions = append(regions, transport.FrameRegion{Dst: 99, Src: 98, Hi: [3]int32{31, 31, 0}, Count: 1024})
	vals = make([]float64, 64*8+1024)
	for i := range vals {
		vals[i] = float64(i)
	}
	var frame []byte
	sec := perCall(7, 500, func() { frame = transport.AppendFrame(frame[:0], regions, vals) })
	out["transport.frame_pack_GBps"] = float64(len(frame)) / sec / 1e9
	var dr []transport.FrameRegion
	var dv []float64
	var derr error
	sec = perCall(7, 500, func() { dr, dv, derr = transport.DecodeFrame(frame, dr[:0], dv[:0]) })
	if derr != nil {
		return derr
	}
	out["transport.frame_unpack_GBps"] = float64(len(frame)) / sec / 1e9
	return nil
}

// tileBoxes cuts an nx×ny×nz-tile lattice of side-s cubes.
func tileBoxes(nx, ny, nz, s int) geom.BoxList {
	var out geom.BoxList
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				out = append(out, geom.Box3(x*s, y*s, z*s, x*s+s-1, y*s+s-1, z*s+s-1))
			}
		}
	}
	return out
}

// skewedCaps is a fixed heterogeneous capacity vector over n nodes.
func skewedCaps(n int) []float64 {
	caps := make([]float64, n)
	sum := 0.0
	for i := range caps {
		caps[i] = 1 + float64(i%4)*0.5
		sum += caps[i]
	}
	for i := range caps {
		caps[i] /= sum
	}
	return caps
}

func probePartition(out map[string]float64) error {
	boxes4k := tileBoxes(16, 16, 16, 4)
	caps := skewedCaps(8)
	var perr error
	timePart := func(p partition.Partitioner, boxes geom.BoxList, reps int) float64 {
		return perCall(reps, 1, func() {
			if _, err := p.Partition(boxes, caps, partition.CellWork); err != nil {
				perr = err
			}
		}) * 1e3
	}
	out["partition.hetero_4k_ms"] = timePart(partition.NewHetero(), boxes4k, 3)
	out["partition.composite_4k_ms"] = timePart(partition.NewComposite(2), boxes4k, 3)
	out["partition.sfchetero_4k_ms"] = timePart(partition.NewSFCHetero(2), boxes4k, 3)
	out["partition.hierarchical_4k_ms"] = timePart(partition.NewHierarchical(2), boxes4k, 3)
	out["partition.hetero_64k_ms"] = timePart(partition.NewHetero(), tileBoxes(64, 32, sized(32, 1), 2), 3)
	if perr != nil {
		return perr
	}
	a, err := partition.NewHetero().Partition(boxes4k, caps, partition.CellWork)
	if err != nil {
		return err
	}
	out["partition.hetero_4k_imbalance_pct"] = a.MaxImbalance()
	// Remap against the assignment the reversed capacities would have given.
	rev := append([]float64(nil), caps...)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	b, err := partition.NewHetero().Partition(boxes4k, rev, partition.CellWork)
	if err != nil {
		return err
	}
	out["partition.remap_4k_ms"] = perCall(5, 1, func() { sink += float64(len(partition.RemapOwners(a, b).Owners)) }) * 1e3

	// Plan construction on the adapt-migrate shape: 2048 tiles, 2 ranks.
	boxes2k := tileBoxes(16, 16, 8, 4)
	old, err := partition.NewHetero().Partition(boxes2k, []float64{0.7, 0.3}, partition.CellWork)
	if err != nil {
		return err
	}
	next, err := partition.NewHetero().Partition(boxes2k, []float64{0.3, 0.7}, partition.CellWork)
	if err != nil {
		return err
	}
	var ghost, repart []float64
	for i := 0; i < sized(3, 1); i++ {
		// old == next leaves the migration plan empty: the ghost plan alone.
		g, err := engine.RepartitionPlanCost(next, next, 2, []int{0, 1}, 1)
		if err != nil {
			return err
		}
		r, err := engine.RepartitionPlanCost(old, next, 2, []int{0, 1}, 1)
		if err != nil {
			return err
		}
		if !g.OracleOK || !r.OracleOK {
			return fmt.Errorf("plan builders disagree with the central oracle")
		}
		ghost, repart = append(ghost, g.PerRankSec*1e3), append(repart, r.PerRankSec*1e3)
	}
	out["engine.ghostplan_2k_ms"] = median(ghost)
	out["engine.repartition_plan_2k_ms"] = median(repart)
	return nil
}

func probeAMR(out map[string]float64) error {
	// A flagged shock slab with a corrugated edge on the amr-regrid base grid.
	domain := geom.Box3(0, 0, 0, 63, 15, 15)
	flags := amr.NewFlagField(domain)
	for z := 0; z <= 15; z++ {
		for y := 0; y <= 15; y++ {
			for x := 20 + (y+z)%5; x <= 30+(y*z)%4; x++ {
				flags.Set(geom.Pt3(x, y, z))
			}
		}
	}
	opts := amr.ClusterOptions{Efficiency: 0.7, MinSide: 4, MaxSide: 32}
	var cerr error
	out["amr.cluster_ms"] = perCall(5, 4, func() {
		if _, err := amr.Cluster(flags, domain, opts); err != nil {
			cerr = err
		}
	}) * 1e3
	if cerr != nil {
		return cerr
	}
	out["amr.regrid_ms"] = perCall(5, 2, func() {
		h, err := amr.New(amr.Config{Domain: domain, RefineRatio: 2, MaxLevels: 3, NestingBuffer: 1, Cluster: opts})
		if err == nil {
			err = h.Regrid([]*amr.FlagField{flags})
		}
		if err != nil {
			cerr = err
		}
	}) * 1e3
	if cerr != nil {
		return cerr
	}

	const fields = 5
	coarse := amr.NewPatch(geom.Box3(0, 0, 0, 15, 15, 15), 1, fields)
	fine := amr.NewPatch(geom.Box3(0, 0, 0, 31, 31, 31).WithLevel(1), 1, fields)
	coarse.FillAll(1)
	var cells int64
	sec := perCall(5, 2, func() { cells = amr.Prolong(fine, coarse, 2) })
	out["amr.prolong_GBps"] = float64(cells) * fields * 16 / sec / 1e9
	sec = perCall(5, 2, func() { cells = amr.Restrict(coarse, fine, 2) })
	// Each coarse cell reads its 8 children and is written once.
	out["amr.restrict_GBps"] = float64(cells) * fields * 8 * 9 / sec / 1e9
	// A face-neighbour halo copy between two halo-latency sized tiles.
	dst := amr.NewPatch(geom.Box2(0, 0, 7, 7), 1, 1)
	src := amr.NewPatch(geom.Box2(8, 0, 15, 7), 1, 1)
	sec = perCall(7, 5000, func() { cells = amr.CopyOverlap(dst, src) })
	out["amr.copyoverlap_GBps"] = float64(cells) * 16 / sec / 1e9
	return nil
}

func probeCheckpoint(out map[string]float64, dir string) error {
	dir = filepath.Join(dir, "probe-ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	euler := solver.NewRichtmyerMeshkov([geom.MaxDim]float64{4, 1, 1})
	g := solver.UniformGrid(4.0 / 64)
	shard := &checkpoint.SPMDShard{Iter: 4, Rank: 0, Size: 2, Patches: map[geom.Box]*amr.Patch{}}
	var raw int64
	for _, b := range tileBoxes(4, 4, 4, 8) {
		p := amr.NewPatch(b, euler.Ghost(), euler.NumFields())
		euler.Init(p, g)
		shard.Patches[b] = p
		raw += p.Bytes()
	}
	var err error
	sec := perCall(3, 1, func() {
		if e := checkpoint.SaveShard(dir, shard); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	out["checkpoint.save_MBps"] = float64(raw) / sec / 1e6
	path := checkpoint.ShardPath(dir, shard.Iter, shard.Rank)
	sec = perCall(3, 1, func() {
		if _, e := checkpoint.LoadShard(path); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	out["checkpoint.load_MBps"] = float64(raw) / sec / 1e6

	h, err := amr.New(amr.Config{Domain: geom.Box3(0, 0, 0, 31, 31, 31), RefineRatio: 2, MaxLevels: 1, Cluster: amr.DefaultClusterOptions()})
	if err != nil {
		return err
	}
	st := &checkpoint.State{Hierarchy: h, Patches: map[geom.Box]*amr.Patch{}, Iter: 1}
	raw = 0
	for _, b := range h.AllBoxes() {
		p := amr.NewPatch(b, euler.Ghost(), euler.NumFields())
		euler.Init(p, g)
		st.Patches[b] = p
		raw += p.Bytes()
	}
	sec = perCall(3, 1, func() {
		var buf bytes.Buffer
		if e := checkpoint.Save(&buf, st); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	out["checkpoint.state_save_MBps"] = float64(raw) / sec / 1e6
	return nil
}

func probeControl(out map[string]float64) error {
	clus, err := exp.NewCluster(32)
	if err != nil {
		return err
	}
	exp.PaperLoadScript(clus)
	newMon := func(workers int) *monitor.Monitor {
		m := monitor.New(monitor.ClusterProber{C: clus}, func() monitor.Forecaster {
			f, _ := monitor.NewForecaster("last")
			return f
		})
		m.SetWorkers(workers)
		return m
	}
	var ms []capacity.Measurement
	m1, m4 := newMon(1), newMon(4)
	out["monitor.sense_32_us"] = perCall(7, 200, func() { ms = m1.Sense(1) }) * 1e6
	out["monitor.sense_32_w4_us"] = perCall(7, 200, func() { ms = m4.Sense(1) }) * 1e6
	var rerr error
	out["capacity.relative_32_ns"] = perCall(7, 2000, func() {
		c, err := capacity.Relative(ms, capacity.EqualWeights())
		if err != nil {
			rerr = err
			return
		}
		sink += c[0]
	}) * 1e9
	if rerr != nil {
		return rerr
	}
	// One node's share of the virtual cluster's per-step cost model.
	out["cluster.step_cost_ns"] = perCall(7, 20000, func() {
		sink += clus.ComputeTimeMem(3, 120, 64) + clus.CommTime(3, 65536, 6)
	}) * 1e9
	return nil
}

func probeIndexing(out map[string]float64) {
	boxes := tileBoxes(16, 16, 8, 4)
	var ix *geom.Index
	out["geom.index_build_2k_us"] = perCall(5, 4, func() { ix = geom.NewIndex(boxes) }) * 1e6
	var hits []int
	i := 0
	out["geom.index_query_ns"] = perCall(7, 20000, func() {
		hits = ix.Query(boxes[i%len(boxes)].Grow(1), hits)
		i++
	}) * 1e9
	sink += float64(len(hits))

	var acc uint64
	hil, mor := sfc.Hilbert{}, sfc.Morton{}
	out["sfc.hilbert_ns"] = perCall(7, 50000, func() {
		acc += hil.Index(geom.Pt3(i&1023, (i>>2)&1023, (i>>4)&1023), 3, 10)
		i++
	}) * 1e9
	out["sfc.morton_ns"] = perCall(7, 50000, func() {
		acc += mor.Index(geom.Pt3(i&1023, (i>>2)&1023, (i>>4)&1023), 3, 10)
		i++
	}) * 1e9
	sink += float64(acc & 0xff)

	// HDDA against a plain map on SimApp's usage: patches keyed by box.
	space := hdda.NewIndexSpace(sfc.Hilbert{}, geom.Box3(0, 0, 0, 63, 63, 31), 2)
	arr := hdda.NewArray[int](space)
	out["hdda.put_ns"] = perCall(5, 1, func() {
		arr = hdda.NewArray[int](space)
		for j, b := range boxes {
			arr.Put(b, j)
		}
	}) / float64(len(boxes)) * 1e9
	gomap := make(map[geom.Box]int, len(boxes))
	for j, b := range boxes {
		gomap[b] = j
	}
	out["hdda.get_ns"] = perCall(7, 20000, func() {
		v, _ := arr.Get(boxes[i%len(boxes)])
		acc += uint64(v)
		i++
	}) * 1e9
	out["hdda.gomap_get_ns"] = perCall(7, 20000, func() {
		acc += uint64(gomap[boxes[i%len(boxes)]])
		i++
	}) * 1e9
	sink += float64(acc & 0xff)
}

func probeObs(out map[string]float64) error {
	// A synthetic 2-rank × 1000-iteration log written through the real
	// recorder, then read back and stitched.
	var buf bytes.Buffer
	log := otrace.NewLog(&buf)
	recs := []*otrace.Recorder{log.Recorder(0), log.Recorder(1)}
	for it := 0; it < sized(1000, 50); it++ {
		for r, rec := range recs {
			rec.SetPos(0, it)
			rec.Span(otrace.PhasePack).End()
			ts := rec.Now()
			rec.Send(1-r, otrace.KindHalo, 512, ts)
			rec.Span(otrace.PhaseCompute).End()
			w := rec.WaitSpan(otrace.PhaseHaloWait, 1-r)
			rec.Recv(1-r, otrace.KindHalo, 512, 0, int32(it), ts)
			w.EndGated(ts)
			rec.Span(otrace.PhaseAdvance).End()
		}
	}
	if err := log.Flush(); err != nil {
		return err
	}
	records, skipped, err := otrace.ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return err
	}
	out["obs.trace_stitch_ms"] = perCall(3, 1, func() { sink += float64(len(otrace.Stitch(records, skipped).Iters)) }) * 1e3

	quiet := otrace.NewLog(io.Discard).Recorder(0)
	out["obs.span_ns"] = perCall(7, 20000, func() { quiet.Span(otrace.PhaseCompute).End() }) * 1e9
	return nil
}
