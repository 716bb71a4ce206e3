package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// The machine this benchmark runs on is usually a few vCPUs of a shared
// host, whose speed drifts with the neighbours' load: the same suite
// pass has taken 0.7 s and 1.4 s ten minutes apart on identical code.
// Raw wall times then measure the host more than the program. So the
// timed loop pauses about once a second to run a fixed probe
// computation that lives in this file (no program code), and the
// end-to-end timings are reported at the probe's nominal speed: each
// time is multiplied, and each rate divided, by
// probeNominal / median(probe times of the run). A change to the
// program moves the timings and not the probe; a slower host moves both
// and cancels. The raw wall times and the probe median go to stderr,
// and a traced run reports the probe as machine.probe_ms.

// probeNominal is the probe time, in seconds, the reported timings are
// scaled to: about what the probe takes on a quiet two-vCPU x86 VM.
const probeNominal = 0.040

// probeEvery is how often the timed loop stops to run the probe.
const probeEvery = time.Second

// probeSink keeps the probe's result live so its work is not elided.
var probeSink int

// speedProbe runs the probe and returns its wall time in seconds. The
// work resembles the program's own: a few thousand heap nodes linked
// into a graph, breadth-first walks over it, map-keyed counting and
// sorting. It is fixed (a splitmix64 stream with a constant seed),
// single-threaded, and independent of the program's code. The garbage
// collector is off while it runs, with a full collection before and
// after (untimed), so neither the program's live heap nor a collection
// it left running is timed, and the probe's garbage does not spill
// into the next timed iteration.
func speedProbe() float64 {
	runtime.GC()
	defer runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func(n int) int {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return int((z ^ (z >> 31)) % uint64(n))
	}
	type node struct {
		id   int
		outs []*node
		tag  map[int]int
	}
	const n = 6000
	nodes := make([]*node, n)
	for i := range nodes {
		nodes[i] = &node{id: i, tag: map[int]int{}}
	}
	for _, v := range nodes {
		for j := 0; j < 4; j++ {
			o := nodes[next(n)]
			v.outs = append(v.outs, o)
			v.tag[o.id] += j
		}
	}
	sum := 0
	for round := 0; round < 16; round++ {
		seen := make([]bool, n)
		queue := []*node{nodes[round]}
		seen[round] = true
		var order []int
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v.id*31+len(v.tag))
			for _, o := range v.outs {
				if !seen[o.id] {
					seen[o.id] = true
					queue = append(queue, o)
				}
			}
		}
		sort.Ints(order)
		counts := map[string]int{}
		for _, v := range order {
			counts[fmt.Sprint(v%5000)] += v
		}
		sum += len(counts) + order[len(order)/2]
	}
	probeSink += sum
	return time.Since(t0).Seconds()
}

// probe runs the speed probe once and records its time and its
// allocations and collections.
func (r *result) probe() {
	before := readMem()
	r.probes = append(r.probes, speedProbe())
	after := readMem()
	r.probeMem.alloc += after.alloc - before.alloc
	r.probeMem.gc += after.gc - before.gc
}

// speedScale is the factor that brings this run's wall times to the
// probe's nominal speed (1 when no probe ran).
func (r *result) speedScale() float64 {
	if len(r.probes) == 0 {
		return 1
	}
	return probeNominal / quantile(r.probes, 0.5)
}

// reportProbe writes the probe median and the scale to stderr.
func (r *result) reportProbe() {
	fmt.Fprintf(os.Stderr, "speed probe: median %.2f ms over %d probes (nominal %.0f ms); timings are wall times x %.4f, rates wall rates / %.4f\n",
		1000*quantile(r.probes, 0.5), len(r.probes), 1000*probeNominal, r.speedScale(), r.speedScale())
}
