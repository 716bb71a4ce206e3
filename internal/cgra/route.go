package cgra

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rewrite"
)

// Net is one point-to-point connection to route: the value produced by
// mapped node Src consumed by mapped node Dst. Bit marks 1-bit nets
// (routed on the narrow control tracks). Nets with the same Src share
// tracks wherever their paths coincide — one value on a track serves any
// number of sinks.
type Net struct {
	Src, Dst int
	Bit      bool
}

// Route is the tile path of a routed net, from the source tile to the
// destination tile inclusive.
type Route struct {
	Net  Net
	Path []Coord
}

// Hops returns the number of tile-to-tile hops.
func (r *Route) Hops() int { return len(r.Path) - 1 }

// Routing is the complete routing result.
type Routing struct {
	Placement *Placement
	Routes    []Route
	// Use16 and Use1 record, per directed tile edge, the number of
	// distinct source signals occupying tracks of each width.
	Use16, Use1 map[[2]Coord]int
	Iterations  int
}

// RouteOptions tunes the negotiated-congestion router.
type RouteOptions struct {
	// MaxIterations bounds rip-up-and-reroute rounds; default 24.
	MaxIterations int
	// FullReroute disables incremental rip-up: every congestion round
	// re-routes every net, like the original PathFinder loop. The
	// incremental router is the default; this mode exists as the
	// reference implementation for equivalence tests and benchmarks.
	FullReroute bool
}

// RouteAll routes every net of the placement using negotiated congestion
// (PathFinder-style): each round routes nets with edge costs that grow
// with present and historical overuse; routing converges when no track
// is oversubscribed. Sinks of one source are routed consecutively and
// reuse the source's existing tracks at near-zero cost, forming shared
// fanout trees.
//
// After the first full round, only the nets whose source's fanout tree
// crosses an over-capacity edge are ripped up and re-routed (in the same
// deterministic net order); everything else keeps its path and its track
// claims. Rip-up happens at source granularity because claims are
// per-(edge, source): removing one sink's path in isolation could strand
// or double-count the shared tree segments.
//
// Failure to converge within MaxIterations (and an unroutable net) is
// reported as fault.ErrNonConvergence, so callers can distinguish "more
// iterations might help" from hard errors. Cancellation of ctx aborts
// between nets with fault.ErrCanceled.
func RouteAll(ctx context.Context, p *Placement, opt RouteOptions) (*Routing, error) {
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 24
	}
	nets := collectNets(p.Mapped)
	r := newRouter(p)
	routes := make([]Route, len(nets))
	ripped := make([]bool, len(p.Mapped.Nodes)) // by source node, this round
	rippedNets, rippedSources := 0, 0
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		if err := fault.Canceled(ctx); err != nil {
			return nil, err
		}
		full := iter == 1 || opt.FullReroute
		if full {
			r.resetUse()
		}
		lastSrc := -1
		for ni := range nets {
			net := nets[ni]
			if !full && !ripped[net.Src] {
				continue
			}
			if ni&255 == 0 {
				if err := fault.Canceled(ctx); err != nil {
					return nil, err
				}
			}
			if net.Src != lastSrc {
				lastSrc = net.Src
				r.beginGroup()
			}
			path, err := r.findPath(net)
			if err != nil {
				return nil, fmt.Errorf("cgra: net %d->%d: %w", net.Src, net.Dst, err)
			}
			r.claim(net, path)
			routes[ni] = Route{Net: net, Path: path}
		}
		if r.overflowScan() == 0 {
			res := &Routing{
				Placement:  p,
				Routes:     routes,
				Use16:      r.useMap(r.use16),
				Use1:       r.useMap(r.use1),
				Iterations: iter,
			}
			obs.Observe(ctx, "route.iterations", int64(iter))
			obs.Add(ctx, "route.nets", int64(len(nets)))
			if rippedNets > 0 {
				obs.Add(ctx, "route.ripup.nets", int64(rippedNets))
				obs.Add(ctx, "route.ripup.sources", int64(rippedSources))
			}
			return res, nil
		}
		if !opt.FullReroute {
			// Rip up every source whose tree touches an over edge; their
			// nets re-route next round against the updated costs.
			for i := range ripped {
				ripped[i] = false
			}
			for ni := range routes {
				rt := &routes[ni]
				if !ripped[rt.Net.Src] && r.crossesOverflow(rt.Net, rt.Path) {
					ripped[rt.Net.Src] = true
				}
			}
			lastSrc = -1
			for ni := range nets {
				if !ripped[nets[ni].Src] {
					continue
				}
				rippedNets++
				if nets[ni].Src != lastSrc {
					lastSrc = nets[ni].Src
					rippedSources++
					r.beginGroup()
				}
				r.unclaim(nets[ni], routes[ni].Path)
			}
		}
	}
	return nil, fault.NonConvergencef("cgra: routing did not converge in %d iterations", opt.MaxIterations)
}

// collectNets derives the net list from the mapped graph, ordered by
// source so fanout trees route consecutively.
func collectNets(m *rewrite.Mapped) []Net {
	var nets []Net
	for i := range m.Nodes {
		n := &m.Nodes[i]
		switch n.Kind {
		case rewrite.KindPE:
			for _, p := range n.DataIn {
				if p >= 0 {
					nets = append(nets, Net{Src: p, Dst: i})
				}
			}
			for _, p := range n.BitIn {
				if p >= 0 {
					nets = append(nets, Net{Src: p, Dst: i, Bit: true})
				}
			}
		default:
			if n.Arg >= 0 {
				nets = append(nets, Net{Src: n.Arg, Dst: i})
			}
		}
	}
	sort.Slice(nets, func(i, j int) bool {
		if nets[i].Src != nets[j].Src {
			return nets[i].Src < nets[j].Src
		}
		if nets[i].Dst != nets[j].Dst {
			return nets[i].Dst < nets[j].Dst
		}
		return !nets[i].Bit && nets[j].Bit
	})
	return nets
}

// router is the dense, preallocated working state of one RouteAll call.
// Every map the old router kept per iteration — usage, history, source
// occupancy, Dijkstra distances — is a flat slice indexed by the padded
// grid's site/edge index (fabric.go), and "clearing" per-net or
// per-source state is an epoch-counter bump instead of a reallocation.
type router struct {
	f   *Fabric
	loc []Coord

	coords []Coord // site index -> coordinate
	nbr    []int32 // site*4+dir -> neighbor site, -1 if invalid
	ring   []bool  // site index -> on the I/O ring

	use16, use1 []int32   // per edge: distinct claiming sources
	hist        []float64 // per edge: accumulated overuse history (shared by both widths)

	// Per-source-group edge stamps: claim dedups (edge, source) pairs by
	// stamping the edge with the group epoch, valid because nets are
	// sorted by source so one source's nets route consecutively.
	mark16, mark1       []int32
	srcEpoch            int32
	claimed16, claimed1 bool // current group claimed any edge of that width

	over16, over1 []bool // per edge: over capacity in the last scan

	// A* state, epoch-stamped so successive nets share the slices.
	dist    []float64
	prev    []int32
	gen     []int32
	curGen  int32
	heap    routeHeap
	pathBuf []int32
}

func newRouter(p *Placement) *router {
	f := p.Fabric
	sites := f.numSites()
	r := &router{
		f:      f,
		loc:    p.Loc,
		coords: make([]Coord, sites),
		nbr:    make([]int32, sites*4),
		ring:   make([]bool, sites),
		use16:  make([]int32, sites*4),
		use1:   make([]int32, sites*4),
		hist:   make([]float64, sites*4),
		mark16: make([]int32, sites*4),
		mark1:  make([]int32, sites*4),
		over16: make([]bool, sites*4),
		over1:  make([]bool, sites*4),
		dist:   make([]float64, sites),
		prev:   make([]int32, sites),
		gen:    make([]int32, sites),
		heap:   make(routeHeap, 0, 256),
	}
	for y := -1; y <= f.H; y++ {
		for x := -1; x <= f.W; x++ {
			c := Coord{x, y}
			i := f.siteIndex(c)
			r.coords[i] = c
			r.ring[i] = f.onRing(c)
			for d, dc := range edgeDirs {
				n := Coord{x + dc.X, y + dc.Y}
				e := i*4 + int32(d)
				if f.ValidCoord(c) && f.ValidCoord(n) {
					r.nbr[e] = f.siteIndex(n)
				} else {
					r.nbr[e] = -1
				}
			}
		}
	}
	return r
}

func (r *router) resetUse() {
	for i := range r.use16 {
		r.use16[i] = 0
	}
	for i := range r.use1 {
		r.use1[i] = 0
	}
}

// beginGroup opens a new source group: subsequent claims stamp edges
// with a fresh epoch, and the reuse discount applies only to edges
// claimed under it.
func (r *router) beginGroup() {
	r.srcEpoch++
	r.claimed16, r.claimed1 = false, false
}

// edge returns the dense index of the directed edge a->b (adjacent).
func (r *router) edge(a, b Coord) int32 {
	i := r.f.siteIndex(a)
	var d int32
	switch {
	case b.X == a.X+1:
		d = 0
	case b.X == a.X-1:
		d = 1
	case b.Y == a.Y+1:
		d = 2
	default:
		d = 3
	}
	return i*4 + d
}

// claim records a routed path's track usage for the current source
// group, counting each (edge, source) pair once — the epoch-stamp fold
// of the old per-edge source-set maps.
func (r *router) claim(net Net, path []Coord) {
	use, mark := r.use16, r.mark16
	if net.Bit {
		use, mark = r.use1, r.mark1
	}
	claimedAny := false
	for i := 0; i+1 < len(path); i++ {
		e := r.edge(path[i], path[i+1])
		if mark[e] != r.srcEpoch {
			mark[e] = r.srcEpoch
			use[e]++
			claimedAny = true
		}
	}
	if claimedAny {
		if net.Bit {
			r.claimed1 = true
		} else {
			r.claimed16 = true
		}
	}
}

// unclaim withdraws a ripped source's track usage. Callers bracket each
// source's nets with beginGroup so the dedup mirrors claim exactly.
func (r *router) unclaim(net Net, path []Coord) {
	use, mark := r.use16, r.mark16
	if net.Bit {
		use, mark = r.use1, r.mark1
	}
	for i := 0; i+1 < len(path); i++ {
		e := r.edge(path[i], path[i+1])
		if mark[e] != r.srcEpoch {
			mark[e] = r.srcEpoch
			use[e]--
		}
	}
}

// overflowScan updates congestion history on every over-capacity edge
// (1-bit overuse weighted 2x, as before, into the shared history plane),
// marks the over edges for rip-up selection, and returns their count.
func (r *router) overflowScan() int {
	over := 0
	cap16, cap1 := int32(r.f.Tracks16), int32(r.f.Tracks1)
	for e, u := range r.use16 {
		r.over16[e] = u > cap16
		if u > cap16 {
			over++
			r.hist[e] += float64(u - cap16)
		}
	}
	for e, u := range r.use1 {
		r.over1[e] = u > cap1
		if u > cap1 {
			over++
			r.hist[e] += float64(u-cap1) * 2
		}
	}
	return over
}

// crossesOverflow reports whether a routed path uses an edge that the
// last overflowScan found over capacity on the net's width plane.
func (r *router) crossesOverflow(net Net, path []Coord) bool {
	over := r.over16
	if net.Bit {
		over = r.over1
	}
	for i := 0; i+1 < len(path); i++ {
		if over[r.edge(path[i], path[i+1])] {
			return true
		}
	}
	return false
}

// useMap materializes a dense usage plane as the coordinate-keyed map
// exposed on Routing.
func (r *router) useMap(use []int32) map[[2]Coord]int {
	m := make(map[[2]Coord]int)
	for e, u := range use {
		if u > 0 {
			a := r.coords[e/4]
			d := edgeDirs[e%4]
			m[[2]Coord{a, {a.X + d.X, a.Y + d.Y}}] = int(u)
		}
	}
	return m
}

// routeItem is an A* frontier entry: f = g + heuristic orders the heap,
// g is the true cost so far for the stale-entry check.
type routeItem struct {
	f, g float64
	node int32
}

// routeHeap is a typed binary min-heap on f — a flat slice with inlined
// sift loops, no interface boxing, reused across nets via truncation.
type routeHeap []routeItem

func (h *routeHeap) push(it routeItem) {
	q := append(*h, it)
	*h = q
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if q[parent].f <= q[i].f {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
}

func (h *routeHeap) pop() routeItem {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < n && q[l].f < q[small].f {
			small = l
		}
		if rr < n && q[rr].f < q[small].f {
			small = rr
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// findPath finds the cheapest tile path for a net under the congestion
// cost model, strongly preferring edges its source already occupies
// (fanout sharing). A* with a Manhattan-distance heuristic: every
// remaining hop costs at least 1 — except hops on the source's own
// already-claimed tracks, which cost 0.05 — so the heuristic scales by
// 0.05 once the current group has claimed anything on this width plane
// and stays admissible (and consistent) in both regimes.
func (r *router) findPath(net Net) ([]Coord, error) {
	src := r.f.siteIndex(r.loc[net.Src])
	dst := r.f.siteIndex(r.loc[net.Dst])
	if src == dst {
		return []Coord{r.coords[src]}, nil
	}
	use, mark, capacity, reusable := r.use16, r.mark16, int32(r.f.Tracks16), r.claimed16
	if net.Bit {
		use, mark, capacity, reusable = r.use1, r.mark1, int32(r.f.Tracks1), r.claimed1
	}
	hscale := 1.0
	if reusable {
		hscale = 0.05
	}
	dc := r.coords[dst]
	r.curGen++
	gen := r.curGen
	r.dist[src] = 0
	r.gen[src] = gen
	r.prev[src] = -1
	r.heap = r.heap[:0]
	r.heap.push(routeItem{hscale * float64(manhattan(r.coords[src], dc)), 0, src})
	for len(r.heap) > 0 {
		it := r.heap.pop()
		if it.node == dst {
			return r.buildPath(src, dst), nil
		}
		if it.g > r.dist[it.node] {
			continue
		}
		base := it.node * 4
		for d := int32(0); d < 4; d++ {
			n := r.nbr[base+d]
			if n < 0 {
				continue
			}
			// I/O ring sites route only as endpoints.
			if r.ring[n] && n != dst {
				continue
			}
			e := base + d
			var step float64
			if mark[e] == r.srcEpoch {
				step = 0.05 // reuse our own signal's track
			} else {
				step = 1
				if u := use[e]; u >= capacity {
					step += 3 * float64(u-capacity+1)
				}
				step += r.hist[e]
			}
			g := it.g + step
			if r.gen[n] != gen || g < r.dist[n] {
				r.dist[n] = g
				r.gen[n] = gen
				r.prev[n] = it.node
				r.heap.push(routeItem{g + hscale*float64(manhattan(r.coords[n], dc)), g, n})
			}
		}
	}
	return nil, fault.NonConvergencef("no path %s -> %s", r.coords[src], r.coords[dst])
}

// buildPath walks prev from dst back to src into a reused scratch
// buffer, then emits one exact-size coordinate slice (the only per-net
// allocation on the routing hot path).
func (r *router) buildPath(src, dst int32) []Coord {
	r.pathBuf = r.pathBuf[:0]
	for n := dst; ; n = r.prev[n] {
		r.pathBuf = append(r.pathBuf, n)
		if n == src {
			break
		}
	}
	path := make([]Coord, len(r.pathBuf))
	for i, n := range r.pathBuf {
		path[len(path)-1-i] = r.coords[n]
	}
	return path
}

// RoutingOnlyTiles counts grid tiles traversed by routes whose cores are
// unused (Table 3's "routing tiles" column).
func (r *Routing) RoutingOnlyTiles() int {
	const usedCore, traversed = 1, 2
	f := r.Placement.Fabric
	site := make([]uint8, f.numSites())
	m := r.Placement.Mapped
	for i := range m.Nodes {
		switch m.Nodes[i].Kind {
		case rewrite.KindPE, rewrite.KindRegFile, rewrite.KindMem, rewrite.KindRom:
			site[f.siteIndex(r.Placement.Loc[i])] |= usedCore
		case rewrite.KindReg:
			// Tiles hosting interconnect registers also count as
			// routing tiles.
			site[f.siteIndex(r.Placement.Loc[i])] |= traversed
		}
	}
	r.markTraversed(site, traversed)
	n := 0
	for _, s := range site {
		if s == traversed {
			n++
		}
	}
	return n
}

// markTraversed ors mark into the site entry of every grid tile a
// route passes through.
func (r *Routing) markTraversed(site []uint8, mark uint8) {
	f := r.Placement.Fabric
	for _, rt := range r.Routes {
		for _, c := range rt.Path {
			if f.InGrid(c) {
				site[f.siteIndex(c)] |= mark
			}
		}
	}
}

// TotalHops sums distinct (edge, source) track segments — the wire/SB
// energy measure (shared fanout hops count once).
func (r *Routing) TotalHops() int {
	h := 0
	for _, u := range r.Use16 {
		h += u
	}
	for _, u := range r.Use1 {
		h += u
	}
	return h
}

// MaxRouteHops returns the longest single-net hop count (sets the
// interconnect's contribution to the critical path).
func (r *Routing) MaxRouteHops() int {
	max := 0
	for _, rt := range r.Routes {
		if rt.Hops() > max {
			max = rt.Hops()
		}
	}
	return max
}

// UsedSBTiles counts grid tiles whose switch box carries at least one
// route (for SB energy/area roll-ups).
func (r *Routing) UsedSBTiles() int {
	site := make([]uint8, r.Placement.Fabric.numSites())
	r.markTraversed(site, 1)
	n := 0
	for _, s := range site {
		n += int(s)
	}
	return n
}
