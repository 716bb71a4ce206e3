package cgra

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
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
	// Seed..Seed+Seeds-1 anneal independently (concurrently, bounded by
	// Parallel) and the lowest-wirelength result wins, ties broken
	// toward the lowest seed — so the outcome never depends on how many
	// workers ran or which finished first. 0 or 1 keeps the single-seed
	// path bit-for-bit identical to a plain Place call.
	Seeds int
	// Parallel bounds concurrent portfolio anneals; 0 = GOMAXPROCS.
	Parallel int
}

// Place produces a legal placement minimizing estimated wirelength via
// greedy seeding followed by simulated annealing. Designs that exceed the
// fabric's tile budget fail with fault.ErrCapacity; cancellation of ctx
// aborts the annealing loop with fault.ErrCanceled.
func Place(ctx context.Context, m *rewrite.Mapped, f *Fabric, opt PlaceOptions) (*Placement, error) {
	if opt.Seeds > 1 {
		return placePortfolio(ctx, m, f, opt)
	}
	p, err := placeOne(ctx, m, f, opt.Seed, opt.Moves)
	if err != nil {
		return nil, err
	}
	obs.Observe(ctx, "place.wirelength", int64(p.wirelength()))
	return p, nil
}

// placePortfolio anneals opt.Seeds placements from consecutive seeds and
// keeps the best. Every candidate is deterministic in isolation, so the
// min-wirelength/lowest-seed selection rule makes the portfolio as a
// whole deterministic regardless of scheduling.
func placePortfolio(ctx context.Context, m *rewrite.Mapped, f *Fabric, opt PlaceOptions) (*Placement, error) {
	k := opt.Seeds
	par := opt.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > k {
		par = k
	}
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
		if wl := p.wirelength(); best < 0 || wl < bestWL {
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

// placeOne is the single-seed place flow: greedy seed, then anneal.
func placeOne(ctx context.Context, m *rewrite.Mapped, f *Fabric, seed int64, moves int) (*Placement, error) {
	if err := fault.Canceled(ctx); err != nil {
		return nil, err
	}
	rng := newAnnealRand(seed + 1)
	p := &Placement{Fabric: f, Mapped: m, Loc: make([]Coord, len(m.Nodes))}

	classes := classNodes(m)
	peSlots := f.PETiles()
	memSlots := f.MemTiles()
	ioSlots := f.IOSites()
	if n := len(classes[classPE]); n > len(peSlots) {
		return nil, fault.Capacityf("cgra: %d PEs exceed %d PE tiles", n, len(peSlots))
	}
	if n := len(classes[classRF]); n > len(peSlots) {
		return nil, fault.Capacityf("cgra: %d register files exceed %d PE tiles", n, len(peSlots))
	}
	if n := len(classes[classMem]); n > len(memSlots) {
		return nil, fault.Capacityf("cgra: %d memories exceed %d memory tiles", n, len(memSlots))
	}
	if n := len(classes[classIO]); n > len(ioSlots) {
		return nil, fault.Capacityf("cgra: %d IOs exceed %d IO sites", n, len(ioSlots))
	}

	// Greedy seed: BFS order of the mapped graph onto slot lists sorted
	// by distance from the grid center, so connected nodes start close.
	center := Coord{f.W / 2, f.H / 2}
	sortByCenter := func(cs []Coord) []Coord {
		out := append([]Coord(nil), cs...)
		sort.Slice(out, func(i, j int) bool {
			di, dj := manhattan(out[i], center), manhattan(out[j], center)
			if di != dj {
				return di < dj
			}
			if out[i].Y != out[j].Y {
				return out[i].Y < out[j].Y
			}
			return out[i].X < out[j].X
		})
		return out
	}
	// Register files share the PE tiles' order; each class has its own
	// cursor into its order.
	peOrder := sortByCenter(peSlots)
	order := [numClasses - 1][]Coord{peOrder, peOrder, sortByCenter(memSlots), sortByCenter(ioSlots)}
	var next [numClasses - 1]int
	var divW, divH divisor
	if len(classes[classReg]) > 0 {
		divW, divH = newDivisor(f.W), newDivisor(f.H)
	}
	for _, i := range m.TopoOrder() {
		switch c := kindClass(m.Nodes[i].Kind); c {
		case -1:
		case classReg:
			// Registers float: seed them at random grid tiles; annealing
			// and routing pull them onto sensible tiles.
			x := rng.intn(&divW)
			p.Loc[i] = Coord{x, rng.intn(&divH)}
		default:
			p.Loc[i] = order[c][next[c]]
			next[c]++
		}
	}

	if err := p.anneal(ctx, rng, moves, classes); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
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

func (p *Placement) wirelength() int {
	total := 0
	for _, n := range p.nets() {
		total += manhattan(p.Loc[n[0]], p.Loc[n[1]])
	}
	return total
}

// xy is a node location on the annealer's flat coordinate plane.
type xy struct{ x, y int32 }

// annealState is the flattened, preallocated working set of one
// annealing run: each node's net neighbours in CSR form, class and
// free-slot tables, and the range sizes every proposal draws from,
// prepared once.
type annealState struct {
	p *Placement
	// nbr[nbrOff[i]:nbrOff[i+1]] lists the other endpoint of every net
	// incident to node i, once per net. Self-loop nets never change
	// length and are left out.
	nbrOff, nbr []int32
	classes     [numClasses][]int
	classOf     []int8
	movable     []int
	free        [numClasses][]Coord

	// loc mirrors p.Loc: the delta loops are pure loads over it, and
	// accepted proposals write both.
	loc []xy

	divMovable, div2 divisor
	divFree          [numClasses]divisor
	divClass         [numClasses]divisor

	t, cool float64
}

// newAnnealState builds the flat tables once per Place call. Returns nil
// when there is nothing to anneal (fewer than two movable nodes), before
// any RNG is consumed — matching the historical early return.
func newAnnealState(p *Placement, classes [numClasses][]int, moves int) *annealState {
	var movable []int
	for _, cl := range classes {
		movable = append(movable, cl...)
	}
	if len(movable) < 2 {
		return nil
	}
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
	classOf := make([]int8, n)
	for ci, cl := range classes {
		for _, nd := range cl {
			classOf[nd] = int8(ci)
		}
	}
	loc := make([]xy, n)
	for i, c := range p.Loc {
		loc[i] = xy{int32(c.X), int32(c.Y)}
	}
	t := float64(p.Fabric.W + p.Fabric.H)
	s := &annealState{
		p:          p,
		nbrOff:     nbrOff,
		nbr:        nbr,
		classes:    classes,
		classOf:    classOf,
		movable:    movable,
		free:       p.freeSlotsByClass(),
		loc:        loc,
		divMovable: newDivisor(len(movable)),
		div2:       newDivisor(2),
		t:          t,
		cool:       math.Pow(0.01/t, 1/float64(moves)),
	}
	for c := range classes {
		if len(s.free[c]) > 0 {
			s.divFree[c] = newDivisor(len(s.free[c]))
		}
		if len(classes[c]) > 0 {
			s.divClass[c] = newDivisor(len(classes[c]))
		}
	}
	return s
}

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

// anneal refines the placement with class-preserving swap/move proposals.
// It polls ctx periodically (every 4096 moves) so a long anneal cannot
// outlive a cancelled evaluation; the deterministic proposal sequence is
// unaffected when ctx stays live.
func (p *Placement) anneal(ctx context.Context, rng *annealRand, moves int, classes [numClasses][]int) error {
	if moves <= 0 {
		moves = 200 * len(p.Mapped.Nodes)
		if moves > 400_000 {
			moves = 400_000
		}
	}
	s := newAnnealState(p, classes, moves)
	if s == nil {
		return nil
	}
	for step := 0; step < moves; step++ {
		if step&4095 == 0 {
			if err := fault.Canceled(ctx); err != nil {
				return err
			}
		}
		s.step(rng)
	}
	return nil
}

// step proposes and (maybe) applies one move or swap. The RNG draw
// sequence, acceptance math, and free-slot bookkeeping reproduce the
// original map-based annealer exactly, so placements are byte-identical
// per seed; the cost of a proposal is an incremental delta over the
// touched nets, computed without mutating the placement until
// acceptance.
func (s *annealState) step(rng *annealRand) {
	p := s.p
	a := s.movable[rng.intn(&s.divMovable)]
	ca := s.classOf[a]
	// Either swap with a same-class node or move to a free slot.
	if len(s.free[ca]) > 0 && rng.intn(&s.div2) == 0 {
		si := rng.intn(&s.divFree[ca])
		target := s.free[ca][si]
		to := xy{int32(target.X), int32(target.Y)}
		if s.acceptDelta(s.moveDelta(a, to), rng) {
			s.free[ca][si] = p.Loc[a]
			p.Loc[a] = target
			s.loc[a] = to
		}
	} else {
		b := s.sameClassPeer(rng, ca, a)
		if b < 0 {
			return // no cooling on a failed pairing, matching the old control flow
		}
		if s.acceptDelta(s.swapDelta(a, b), rng) {
			p.Loc[a], p.Loc[b] = p.Loc[b], p.Loc[a]
			s.loc[a], s.loc[b] = s.loc[b], s.loc[a]
		}
	}
	s.t *= s.cool
}

// moveDelta is the wirelength change from relocating node a to `to`.
func (s *annealState) moveDelta(a int, to xy) int {
	from := s.loc[a]
	delta := int32(0)
	for _, n := range s.nbr[s.nbrOff[a]:s.nbrOff[a+1]] {
		at := s.loc[n]
		delta += manhattan32(to, at) - manhattan32(from, at)
	}
	return int(delta)
}

// swapDelta is the wirelength change from exchanging the locations of a
// and b: the sum over a's neighbours other than b, and b's other than a.
// A net joining a and b keeps its length under the swap, so skipping it
// on both sides is exact.
func (s *annealState) swapDelta(a, b int) int {
	la, lb := s.loc[a], s.loc[b]
	a32, b32 := int32(a), int32(b)
	delta := int32(0)
	for _, n := range s.nbr[s.nbrOff[a]:s.nbrOff[a+1]] {
		if n != b32 {
			at := s.loc[n]
			delta += manhattan32(lb, at) - manhattan32(la, at)
		}
	}
	for _, n := range s.nbr[s.nbrOff[b]:s.nbrOff[b+1]] {
		if n != a32 {
			at := s.loc[n]
			delta += manhattan32(la, at) - manhattan32(lb, at)
		}
	}
	return int(delta)
}

// acceptDelta is the Metropolis criterion on an incremental cost delta.
// For integer deltas float64(before-after) == -float64(delta) exactly,
// and the Float64 draw happens iff delta > 0 — both identical to the old
// accepted(before, after) on full costs.
//
// The transcendental is bracketed before it is computed: for x <= 0,
// 1+x <= exp(x) <= 1/(1-x) with slack of order x^2/2. Here |x| >=
// 1/(W+H) (delta is a positive integer, t starts at W+H and only
// shrinks), so the slack dwarfs float rounding by >10 orders of
// magnitude and the cheap bounds decide u < exp(x) exactly; math.Exp
// runs only for draws inside the thin undecided band.
func (s *annealState) acceptDelta(delta int, rng *annealRand) bool {
	if delta <= 0 {
		return true
	}
	u := rng.float64()
	x := -float64(delta) / s.t
	if u <= 1+x {
		return true
	}
	if u*(1-x) >= 1 {
		return false
	}
	return u < math.Exp(x)
}

// sameClassPeer draws a swap partner for a from its class: up to eight
// draws, -1 when none differs from a (or the class has one member).
func (s *annealState) sameClassPeer(rng *annealRand, c int8, a int) int {
	class := s.classes[c]
	if len(class) < 2 {
		return -1
	}
	for tries := 0; tries < 8; tries++ {
		b := class[rng.intn(&s.divClass[c])]
		if b != a {
			return b
		}
	}
	return -1
}

// freeSlotsByClass lists the unoccupied slots of each resource class, in
// fabric order. Interconnect registers are not exclusive, so every grid
// tile is a register slot.
func (p *Placement) freeSlotsByClass() [numClasses][]Coord {
	f := p.Fabric
	sites := f.numSites()
	var occupied [classReg][]bool // over the dense site index
	for c := range occupied {
		occupied[c] = make([]bool, sites)
	}
	for i := range p.Mapped.Nodes {
		if c := kindClass(p.Mapped.Nodes[i].Kind); c >= 0 && c < classReg {
			occupied[c][f.siteIndex(p.Loc[i])] = true
		}
	}
	var free [numClasses][]Coord
	for _, c := range f.PETiles() {
		if !occupied[classPE][f.siteIndex(c)] {
			free[classPE] = append(free[classPE], c)
		}
		if !occupied[classRF][f.siteIndex(c)] {
			free[classRF] = append(free[classRF], c)
		}
		free[classReg] = append(free[classReg], c)
	}
	for _, c := range f.MemTiles() {
		if !occupied[classMem][f.siteIndex(c)] {
			free[classMem] = append(free[classMem], c)
		}
		free[classReg] = append(free[classReg], c)
	}
	for _, c := range f.IOSites() {
		if !occupied[classIO][f.siteIndex(c)] {
			free[classIO] = append(free[classIO], c)
		}
	}
	return free
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
