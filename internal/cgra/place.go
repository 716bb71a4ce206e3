package cgra

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rewrite"
)

// Placement assigns every mapped node a fabric coordinate. PE and
// register-file nodes occupy PE tiles (a tile hosts at most one PE core
// and at most one register file — the register file is a separate
// resource within the tile, matching the paper's register-file
// pipelining); memory nodes occupy memory tiles; I/O nodes occupy ring
// sites; interconnect registers attach to any grid tile's switch box.
type Placement struct {
	Fabric *Fabric
	Mapped *rewrite.Mapped
	Loc    []Coord // per mapped node

	// netList caches the (producer, consumer) pairs; built once by the
	// first nets() call (Place always triggers it before the placement
	// is shared, so later concurrent readers see it populated).
	netList [][2]int
}

// PlaceOptions tunes the simulated-annealing placer.
type PlaceOptions struct {
	Seed  int64
	Moves int // annealing moves; 0 = default scaled by design size

	// Seeds widens placement into a deterministic portfolio: seeds
	// Seed..Seed+Seeds-1 anneal independently (concurrently, at most
	// GOMAXPROCS at a time) and the lowest-wirelength result wins, ties
	// broken toward the lowest seed — so the outcome never depends on
	// how many workers ran or which finished first. 0 or 1 keeps the
	// single-seed path bit-for-bit identical to a plain Place call.
	Seeds int
}

// Place produces a legal placement minimizing estimated wirelength via
// constructive seeding followed by simulated annealing. Designs that
// exceed the fabric's tile budget fail with fault.ErrCapacity;
// cancellation of ctx aborts the annealing loop with fault.ErrCanceled.
func Place(ctx context.Context, m *rewrite.Mapped, f *Fabric, opt PlaceOptions) (*Placement, error) {
	if opt.Seeds > 1 {
		return placePortfolio(ctx, m, f, opt)
	}
	p, err := placeOne(ctx, m, f, opt.Seed, opt.Moves)
	if err != nil {
		return nil, err
	}
	obs.Observe(ctx, "place.wirelength", int64(p.Wirelength()))
	return p, nil
}

// placePortfolio anneals opt.Seeds placements from consecutive seeds and
// keeps the best. Every candidate is deterministic in isolation, so the
// min-wirelength/lowest-seed selection rule makes the portfolio as a
// whole deterministic regardless of scheduling.
func placePortfolio(ctx context.Context, m *rewrite.Mapped, f *Fabric, opt PlaceOptions) (*Placement, error) {
	k := opt.Seeds
	par := min(runtime.GOMAXPROCS(0), k)
	placements := make([]*Placement, k)
	errs := make([]error, k)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			placements[i], errs[i] = placeOne(ctx, m, f, opt.Seed+int64(i), opt.Moves)
		}(i)
	}
	wg.Wait()
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	best, bestWL := -1, 0
	for i, p := range placements {
		if errs[i] != nil {
			continue
		}
		if wl := p.Wirelength(); best < 0 || wl < bestWL {
			best, bestWL = i, wl
		}
	}
	if best < 0 {
		// Placement failures (capacity) are seed-independent, so the
		// first seed's error speaks for the whole portfolio.
		return nil, errs[0]
	}
	obs.Add(ctx, "place.portfolio.anneals", int64(k))
	obs.Observe(ctx, "place.portfolio.pick", int64(best))
	obs.Observe(ctx, "place.wirelength", int64(bestWL))
	return placements[best], nil
}

// Resource classes of mapped nodes: the annealer moves and swaps nodes
// only within a class, and each class draws on its own free-slot list.
const (
	classPE = iota
	classRF
	classMem
	classIO
	classReg
	numClasses
)

// kindClass is the resource class of a mapped node kind, -1 for kinds
// that are not placed.
func kindClass(k rewrite.NodeKind) int {
	switch k {
	case rewrite.KindPE:
		return classPE
	case rewrite.KindRegFile:
		return classRF
	case rewrite.KindMem, rewrite.KindRom:
		return classMem
	case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
		return classIO
	case rewrite.KindReg:
		return classReg
	}
	return -1
}

// classNodes partitions the placed nodes of m by resource class, in
// node order.
func classNodes(m *rewrite.Mapped) [numClasses][]int {
	var classes [numClasses][]int
	for i := range m.Nodes {
		if c := kindClass(m.Nodes[i].Kind); c >= 0 {
			classes[c] = append(classes[c], i)
		}
	}
	return classes
}

// placeOne is the single-seed place flow: constructive seed, then
// anneal.
func placeOne(ctx context.Context, m *rewrite.Mapped, f *Fabric, seed int64, moves int) (*Placement, error) {
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	rng := splitMix(seed)
	p := &Placement{Fabric: f, Mapped: m, Loc: make([]Coord, len(m.Nodes))}

	classes := classNodes(m)
	free, slots := freeSites(f)
	for c, name := range [classReg][2]string{{"PEs", "PE tiles"}, {"register files", "PE tiles"}, {"memories", "memory tiles"}, {"IOs", "IO sites"}} {
		if n := len(classes[c]); n > slots[c] {
			return nil, fault.Capacityf("cgra: %d %s exceed %d %s", n, name[0], slots[c], name[1])
		}
	}

	p.seed(&rng, free)
	if _, err := p.anneal(ctx, &rng, moves, classes); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// freeSites marks, per dense site index, the resource classes the site
// can host: bit c is set on the grid tiles of class c's tile kind, on
// the ring's I/O sites (corners excluded) for I/O, and on every grid
// tile for interconnect registers. It also counts each exclusive
// class's sites.
func freeSites(f *Fabric) (free []uint8, slots [classReg]int) {
	free = make([]uint8, f.numSites())
	for y := -1; y <= f.H; y++ {
		for x := -1; x <= f.W; x++ {
			c := Coord{x, y}
			var bits uint8
			switch {
			case !f.ValidCoord(c):
				continue
			case !f.InGrid(c):
				bits = 1 << classIO
			case f.KindAt(c) == TileMem:
				bits = 1<<classMem | 1<<classReg
			default:
				bits = 1<<classPE | 1<<classRF | 1<<classReg
			}
			free[f.siteIndex(c)] = bits
			for cl := range slots {
				if bits&(1<<cl) != 0 {
					slots[cl]++
				}
			}
		}
	}
	return free, slots
}

// seed lays the design out constructively along its dataflow order
// (TopoOrder), so the anneal starts from a placement whose nets are
// already short: each node takes the free site of its class nearest the
// centroid of its already-placed producers, and a node with no placed
// producer (an input, or a node closing a cycle) takes the free site of
// its class nearest the grid centre. The seed holds interconnect
// registers to one per tile too, so a register chain spreads out rather
// than stacking every net on one switch box; a register with no placed
// producer starts on a random tile. free is freeSites' mask, and seed
// clears the bits it takes.
func (p *Placement) seed(rng *splitMix, free []uint8) {
	f, m := p.Fabric, p.Mapped
	center := Coord{f.W / 2, f.H / 2}
	// Sites are only ever taken, so the distance from the centre to a
	// class's nearest free site never shrinks: each class's search from
	// the centre resumes at the last one's radius.
	var centerD [numClasses]int
	placed := make([]bool, len(m.Nodes))
	var prods []int
	for _, i := range m.TopoOrder() {
		c := kindClass(m.Nodes[i].Kind)
		if c < 0 {
			continue
		}
		prods = m.Nodes[i].AppendProducers(prods[:0])
		var sx, sy, k int
		for _, pr := range prods {
			if placed[pr] {
				sx += p.Loc[pr].X
				sy += p.Loc[pr].Y
				k++
			}
		}
		placed[i] = true
		var at Coord
		var ok bool
		switch {
		case k > 0:
			centroid := Coord{roundDiv(sx, k), roundDiv(sy, k)}
			if at, _, ok = nearestFree(f, free, c, centroid, 0); !ok {
				// Only registers outnumber their sites: stack this one.
				at = Coord{min(max(centroid.X, 0), f.W-1), min(max(centroid.Y, 0), f.H-1)}
			}
		case c == classReg:
			v := rng.next()
			at = Coord{int(below(uint32(v>>32), int32(f.W))), int(below(uint32(v), int32(f.H)))}
		default:
			at, centerD[c], _ = nearestFree(f, free, c, center, centerD[c])
		}
		free[f.siteIndex(at)] &^= 1 << c
		p.Loc[i] = at
	}
}

// roundDiv is a/b rounded to the nearest integer, halves up, for b > 0.
func roundDiv(a, b int) int {
	n, d := 2*a+b, 2*b
	if n < 0 {
		return -((-n + d - 1) / d) // floor of a negative quotient
	}
	return n / d
}

// nearestFree finds the site nearest c whose free bit for class cl is
// set, searching Manhattan rings of growing radius from radius d0 out
// to the far corner of the fabric; within one ring it walks rows north
// to south, west before east. It returns the site, its ring's radius,
// and false if no site is free.
func nearestFree(f *Fabric, free []uint8, cl int, c Coord, d0 int) (Coord, int, bool) {
	bit := uint8(1) << cl
	try := func(x, y int) bool {
		return x >= -1 && x <= f.W && y >= -1 && y <= f.H && free[f.siteIndex(Coord{x, y})]&bit != 0
	}
	for d := d0; d <= f.W+f.H+2; d++ {
		for dy := -d; dy <= d; dy++ {
			dx := d - abs(dy)
			if try(c.X-dx, c.Y+dy) {
				return Coord{c.X - dx, c.Y + dy}, d, true
			}
			if dx != 0 && try(c.X+dx, c.Y+dy) {
				return Coord{c.X + dx, c.Y + dy}, d, true
			}
		}
	}
	return c, 0, false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// nets enumerates (producer, consumer) pairs, cached on the Placement
// after the first call.
func (p *Placement) nets() [][2]int {
	if p.netList == nil {
		ns := make([][2]int, 0, len(p.Mapped.Nodes))
		var prods []int
		for i := range p.Mapped.Nodes {
			prods = p.Mapped.Nodes[i].AppendProducers(prods[:0])
			for _, pr := range prods {
				ns = append(ns, [2]int{pr, i})
			}
		}
		p.netList = ns
	}
	return p.netList
}

// Wirelength is the placer's cost: the total Manhattan distance over
// every (producer, consumer) pair.
func (p *Placement) Wirelength() int {
	total := 0
	for _, n := range p.nets() {
		total += manhattan(p.Loc[n[0]], p.Loc[n[1]])
	}
	return total
}

// PlacerRevision names the annealer's algorithm. Placements are a pure
// function of (netlist, fabric, PlaceOptions) only within one revision,
// so anything that persists placement-derived results folds it into
// its keys; bump it whenever a change moves any placement. Revision 1
// was the fixed geometric schedule over whole-fabric moves, revision 2
// the open-ended adaptive schedule from a centre-sorted seed at 100
// moves per node.
const PlacerRevision = 3

// The annealing schedule (VPR's, after Betz and Rose, with its length
// fitted to the budget), sized on the nine-app suite's 24 distinct
// netlists, routed.
const (
	// movesPerNode and maxAutoMoves size the automatic budget
	// (PlaceOptions.Moves == 0): a quarter of the fixed-schedule
	// annealer's 200 per node, and half its 400k cap.
	movesPerNode = 50
	maxAutoMoves = 200_000
	// t0Spread sets the start temperature to this fraction of the
	// standard deviation of random-move deltas at the constructive
	// seed. The seed is already a good placement, so the anneal starts
	// cool enough to keep its structure.
	t0Spread = 0.2
	// freezeFrac ends the anneal once T falls below this fraction of
	// the mean wirelength per net; a greedy quench spends the rest of
	// the budget.
	freezeFrac = 0.002
	// quenchShare is the tail of the budget that always goes to the
	// quench; the cooling is fitted to freeze before it.
	quenchShare = 0.1
	// rlimBase is the window update's fixed part: rlim <- rlim*(rlimBase
	// + alpha), which holds rlim steady at an acceptance rate of 0.44.
	rlimBase = 0.56
)

// coolFactor is VPR's temperature update for a round that accepted a
// share alpha of its proposals: cool fast while almost everything is
// accepted or almost nothing is, slowly through the productive middle.
func coolFactor(alpha float64) float64 {
	switch {
	case alpha > 0.96:
		return 0.5
	case alpha > 0.8:
		return 0.9
	case alpha > 0.15:
		return 0.95
	}
	return 0.8
}

// splitMix is the annealer's random stream: SplitMix64, whose
// consecutive seeds (the portfolio's and the retry ladder's) give
// independent streams.
type splitMix uint64

func (r *splitMix) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// float64 is a uniform draw in [0, 1).
func (r *splitMix) float64() float64 { return float64(r.next()>>11) * 0x1p-53 }

// below maps 32 random bits onto [0, n) by Lemire's multiply-shift: no
// division, and a bias under n/2^32.
func below(v uint32, n int32) int32 { return int32(uint64(v) * uint64(n) >> 32) }

// xy is a node location on the annealer's flat coordinate plane.
type xy struct{ x, y int32 }

// annealState is the flattened, preallocated working set of one
// annealing run: each node's net neighbours in CSR form, per-class
// occupancy over the fabric's dense site index, and the compressed
// site tables every windowed proposal draws from, prepared once.
type annealState struct {
	// nbr[nbrOff[i]:nbrOff[i+1]] lists the other endpoint of every net
	// incident to node i, once per net. Self-loop nets never change
	// length and are left out.
	nbrOff, nbr []int32
	classOf     []int8
	movable     []int32
	loc         []xy

	// occ[c][site] is 1 + the class-c node on a dense site index, 0
	// when the site is free. Interconnect registers are not exclusive
	// and have no table.
	occ [classReg][]int32
	// Grid classes draw a window on a compressed grid (VPR's): cols[c]
	// lists the columns holding class c's sites, colOf[c][x] is column
	// x's index in it, so a window of radius r spans r such columns on
	// either side whatever the memory-column stride. I/O sites draw
	// along the ring: ring lists them in ring order and ringOf maps a
	// dense site index to its ring position.
	cols, colOf [numClasses][]int32
	ring        []xy
	ringOf      []int32
	h, w2       int32 // grid height; w2 = W+2 strides the dense site index

	rng  *splitMix
	t    float64 // temperature; 0 during the quench
	cost int     // current wirelength
	nets int     // nets that can change length
}

// newAnnealState builds the flat tables once per Place call. Returns nil
// when there is nothing to anneal (fewer than two movable nodes).
func newAnnealState(p *Placement, classes [numClasses][]int, rng *splitMix) *annealState {
	var movable []int32
	for _, cl := range classes {
		for _, i := range cl {
			movable = append(movable, int32(i))
		}
	}
	if len(movable) < 2 {
		return nil
	}
	f := p.Fabric
	n := len(p.Mapped.Nodes)
	nets := p.nets()
	nbrOff := make([]int32, n+1)
	for _, nt := range nets {
		if nt[0] != nt[1] {
			nbrOff[nt[0]+1]++
			nbrOff[nt[1]+1]++
		}
	}
	for i := 0; i < n; i++ {
		nbrOff[i+1] += nbrOff[i]
	}
	nbr := make([]int32, nbrOff[n])
	fill := append([]int32(nil), nbrOff[:n]...)
	for _, nt := range nets {
		u, v := nt[0], nt[1]
		if u != v {
			nbr[fill[u]] = int32(v)
			fill[u]++
			nbr[fill[v]] = int32(u)
			fill[v]++
		}
	}
	s := &annealState{
		nbrOff:  nbrOff,
		nbr:     nbr,
		classOf: make([]int8, n),
		movable: movable,
		loc:     make([]xy, n),
		h:       int32(f.H),
		w2:      int32(f.W + 2),
		rng:     rng,
		nets:    len(nbr) / 2,
	}
	for i, c := range p.Loc {
		s.loc[i] = xy{int32(c.X), int32(c.Y)}
	}
	sites := f.numSites()
	for c := range s.occ {
		s.occ[c] = make([]int32, sites)
	}
	for ci, cl := range classes {
		for _, i := range cl {
			s.classOf[i] = int8(ci)
			if ci < classReg {
				s.occ[ci][f.siteIndex(p.Loc[i])] = int32(i + 1)
			}
		}
	}
	s.cost = p.Wirelength()
	for c := range s.cols {
		if c == classIO {
			continue
		}
		s.colOf[c] = make([]int32, f.W)
		for x := 0; x < f.W; x++ {
			k := f.KindAt(Coord{x, 0})
			if c == classReg || (k == TileMem) == (c == classMem) {
				s.colOf[c][x] = int32(len(s.cols[c]))
				s.cols[c] = append(s.cols[c], int32(x))
			}
		}
	}
	// The ring runs clockwise: north edge west to east, east edge north
	// to south, south edge east to west, west edge south to north.
	for x := 0; x < f.W; x++ {
		s.ring = append(s.ring, xy{int32(x), -1})
	}
	for y := 0; y < f.H; y++ {
		s.ring = append(s.ring, xy{int32(f.W), int32(y)})
	}
	for x := f.W - 1; x >= 0; x-- {
		s.ring = append(s.ring, xy{int32(x), int32(f.H)})
	}
	for y := f.H - 1; y >= 0; y-- {
		s.ring = append(s.ring, xy{-1, int32(y)})
	}
	s.ringOf = make([]int32, sites)
	for i, c := range s.ring {
		s.ringOf[s.site(c)] = int32(i)
	}
	return s
}

// site is the dense site index of a location.
func (s *annealState) site(c xy) int32 { return (c.y+1)*s.w2 + c.x + 1 }

// manhattan32 is manhattan on the flat coordinate plane.
func manhattan32(a, b xy) int32 {
	dx, dy := a.x-b.x, a.y-b.y
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// anneal refines the placement with windowed, class-preserving move and
// swap proposals under an adaptive schedule fitted to the move budget: a
// start temperature from the spread of random-move deltas, rounds of one
// proposal per movable node, each round rescaling the window radius by
// its acceptance rate and cooling by VPR's factor for that rate or, when
// that is too slow to freeze in the rounds left before the quench tail,
// by the factor that freezes exactly as they run out; once frozen, a
// greedy quench spends the rest of the budget. It returns the number of
// moves made when the anneal froze, -1 if the quench tail cut it hot (a
// budget under two rounds). It polls ctx every 4096 proposals so a long
// anneal cannot outlive a cancelled evaluation; the proposal sequence
// does not depend on ctx while it stays live.
func (p *Placement) anneal(ctx context.Context, rng *splitMix, moves int, classes [numClasses][]int) (frozeAt int, err error) {
	if moves <= 0 {
		moves = min(movesPerNode*len(p.Mapped.Nodes), maxAutoMoves)
	}
	s := newAnnealState(p, classes, rng)
	if s == nil {
		return 0, nil
	}
	rmax := float64(max(p.Fabric.W, p.Fabric.H))
	rlim := rmax
	round := len(s.movable)

	// Start temperature: the spread of the first round's deltas,
	// proposed over the whole fabric and not applied.
	probe := min(round, moves)
	var sum, sumSq float64
	for i := 0; i < probe; i++ {
		if _, d, ok := s.propose(int32(rmax)); ok {
			sum += float64(d)
			sumSq += float64(d) * float64(d)
		}
	}
	mean := sum / float64(probe)
	s.t = t0Spread * math.Sqrt(max(sumSq/float64(probe)-mean*mean, 0))

	quenchAt := moves - int(quenchShare*float64(moves))
	frozeAt = -1
	if s.t == 0 {
		frozeAt = probe
	}
	for done := probe; done < moves; {
		if done >= quenchAt {
			s.t = 0
		}
		k := min(round, moves-done)
		r := int32(rlim)
		accepted := 0
		for i := 0; i < k; i++ {
			if (done+i)&4095 == 0 {
				if err := fault.Canceled(ctx); err != nil {
					return 0, err
				}
			}
			if s.step(r) {
				accepted++
			}
		}
		done += k
		alpha := float64(accepted) / float64(k)
		rlim = min(max(rlim*(rlimBase+alpha), 1), rmax)
		if s.t > 0 {
			// Cooling by (tFreeze/T)^(1/left) every round lands T on the
			// freeze threshold as the left rounds before the quench tail
			// run out; with one round left that factor is the freeze.
			tFreeze := freezeFrac * float64(s.cost) / float64(max(s.nets, 1))
			left := (quenchAt - done + round - 1) / round
			if left > 1 {
				s.t *= min(coolFactor(alpha), math.Pow(tFreeze/s.t, 1/float64(left)))
			}
			if left <= 1 || s.t < tFreeze {
				s.t = 0
				frozeAt = done
			}
		}
	}
	for _, i := range s.movable {
		p.Loc[i] = Coord{int(s.loc[i].x), int(s.loc[i].y)}
	}
	return frozeAt, nil
}

// proposal is one candidate change: node a to location to, swapping
// with b (-1 for a free site).
type proposal struct {
	a, b int32
	to   xy
}

// propose draws a random movable node and a different site of its
// class inside a window of radius r around it, clamped to the fabric
// (twice r along the I/O ring, whose steps are Manhattan steps), and
// returns the move or swap onto that site with its wirelength delta. A
// drawn target equal to the node's own site is redrawn; ok is false if
// four draws in a row hit it.
func (s *annealState) propose(r int32) (pr proposal, delta int32, ok bool) {
	a := s.movable[below(uint32(s.rng.next()>>32), int32(len(s.movable)))]
	from := s.loc[a]
	c := s.classOf[a]
	var to xy
	if c == classIO {
		l := int32(len(s.ring))
		rr := min(2*r, l/2)
		k := below(uint32(s.rng.next()>>32), 2*rr) - rr // [-rr, rr)
		if k >= 0 {
			k++ // skip the node's own site: [-rr, -1] and [1, rr]
		}
		pos := s.ringOf[s.site(from)] + k
		if pos < 0 {
			pos += l
		} else if pos >= l {
			pos -= l
		}
		to = s.ring[pos]
	} else {
		cols := s.cols[c]
		ci := s.colOf[c][from.x]
		xlo, xhi := max(ci-r, 0), min(ci+r, int32(len(cols))-1)
		ylo, yhi := max(from.y-r, 0), min(from.y+r, s.h-1)
		for tries := 0; ; tries++ {
			v := s.rng.next()
			to = xy{cols[xlo+below(uint32(v>>32), xhi-xlo+1)], ylo + below(uint32(v), yhi-ylo+1)}
			if to != from {
				break
			}
			if tries == 3 {
				return proposal{}, 0, false
			}
		}
	}
	pr = proposal{a: a, b: -1, to: to}
	if c != classReg {
		pr.b = s.occ[c][s.site(to)] - 1
	}
	if pr.b < 0 {
		return pr, s.moveDelta(a, to), true
	}
	return pr, s.swapDelta(a, pr.b), true
}

// step proposes one move or swap within radius r and applies it if the
// Metropolis test accepts it, reporting whether it did.
func (s *annealState) step(r int32) bool {
	pr, delta, ok := s.propose(r)
	if !ok || !s.accept(delta) {
		return false
	}
	a, b := pr.a, pr.b
	from := s.loc[a]
	if c := s.classOf[a]; c != classReg {
		occ := s.occ[c]
		occ[s.site(from)] = b + 1 // 0 when a moved to a free site
		occ[s.site(pr.to)] = a + 1
	}
	if b >= 0 {
		s.loc[b] = from
	}
	s.loc[a] = pr.to
	s.cost += int(delta)
	return true
}

// moveDelta is the wirelength change from relocating node a to `to`.
func (s *annealState) moveDelta(a int32, to xy) int32 {
	from := s.loc[a]
	delta := int32(0)
	for _, n := range s.nbr[s.nbrOff[a]:s.nbrOff[a+1]] {
		at := s.loc[n]
		delta += manhattan32(to, at) - manhattan32(from, at)
	}
	return delta
}

// swapDelta is the wirelength change from exchanging the locations of a
// and b: the sum over a's neighbours other than b, and b's other than a.
// A net joining a and b keeps its length under the swap, so skipping it
// on both sides is exact.
func (s *annealState) swapDelta(a, b int32) int32 {
	la, lb := s.loc[a], s.loc[b]
	delta := int32(0)
	for _, n := range s.nbr[s.nbrOff[a]:s.nbrOff[a+1]] {
		if n != b {
			at := s.loc[n]
			delta += manhattan32(lb, at) - manhattan32(la, at)
		}
	}
	for _, n := range s.nbr[s.nbrOff[b]:s.nbrOff[b+1]] {
		if n != a {
			at := s.loc[n]
			delta += manhattan32(la, at) - manhattan32(lb, at)
		}
	}
	return delta
}

// accept is the Metropolis criterion on an incremental cost delta; at
// T = 0 (the quench) it accepts exactly the moves that do not worsen
// the cost.
//
// The transcendental is bracketed before it is computed: for x <= 0,
// 1+x <= exp(x) <= 1/(1-x) with slack of order x^2/2. Here |x| >= 1/T0
// (delta is a positive integer and T only falls from T0, a fraction of
// a spread of wirelength deltas on a fabric of at most a few thousand
// tiles a side), so the slack dwarfs float rounding by many orders of
// magnitude and the cheap bounds decide u < exp(x) exactly; math.Exp
// runs only for draws inside the thin undecided band.
func (s *annealState) accept(delta int32) bool {
	if delta <= 0 {
		return true
	}
	if s.t == 0 {
		return false
	}
	u := s.rng.float64()
	x := -float64(delta) / s.t
	if u <= 1+x {
		return true
	}
	if u*(1-x) >= 1 {
		return false
	}
	return u < math.Exp(x)
}

// Validate checks resource legality: kinds on compatible tiles and no
// double occupancy within a resource class.
func (p *Placement) Validate() error {
	// One occupant per site for PEs, memories and I/O (their tile kinds
	// differ, so they never meet on a site) and one for register files;
	// entries hold node index + 1.
	f := p.Fabric
	sites := f.numSites()
	owner := make([]int32, 2*sites)
	claim := func(i int, c Coord, slot int, what, where string) error {
		if c.X < -1 || c.X > f.W || c.Y < -1 || c.Y > f.H {
			return fmt.Errorf("cgra: node %d off the fabric at %s", i, c)
		}
		o := &owner[slot*sites+int(f.siteIndex(c))]
		if *o != 0 {
			return fmt.Errorf("cgra: %s %d and %d share %s %s", what, *o-1, i, where, c)
		}
		*o = int32(i + 1)
		return nil
	}
	for i := range p.Mapped.Nodes {
		c := p.Loc[i]
		kind := p.Mapped.Nodes[i].Kind
		var err error
		switch kind {
		case rewrite.KindPE, rewrite.KindRegFile:
			if f.KindAt(c) != TilePE {
				return fmt.Errorf("cgra: node %d (%s) on %s tile %s", i, kind, f.KindAt(c), c)
			}
			slot := 0
			if kind == rewrite.KindRegFile {
				slot = 1
			}
			err = claim(i, c, slot, "nodes", "tile")
		case rewrite.KindMem, rewrite.KindRom:
			if f.KindAt(c) != TileMem {
				return fmt.Errorf("cgra: mem node %d on %s tile %s", i, f.KindAt(c), c)
			}
			err = claim(i, c, 0, "mems", "tile")
		case rewrite.KindInput, rewrite.KindInputB, rewrite.KindOutput:
			if f.KindAt(c) != TileIO {
				return fmt.Errorf("cgra: IO node %d on %s tile %s", i, f.KindAt(c), c)
			}
			err = claim(i, c, 0, "IOs", "site")
		case rewrite.KindReg:
			if !f.InGrid(c) {
				return fmt.Errorf("cgra: reg node %d off-grid at %s", i, c)
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
