package cgra

import (
	"math/bits"
	"math/rand"
)

// The annealer's random stream is math/rand's additive lagged-Fibonacci
// generator: x[n] = x[n-607] + x[n-273] (mod 2^64). Its seeding mixes in
// a table private to math/rand, so the first rngLen outputs are drawn
// from rand.NewSource; past them the recurrence itself continues the
// stream, inlined and free of the Source interface.
const (
	rngLen = 607
	rngTap = 273
)

// annealRand reproduces rand.New(rand.NewSource(seed)) call for call:
// intn(d) returns what Intn(d.n) would, float64 what Float64 would, and
// both consume the underlying stream exactly as those methods do. The
// state is ~5 KB, so a run holds one instance and passes it by pointer.
type annealRand struct {
	x    [rngLen]uint64 // the last rngLen outputs, x[n%rngLen] = output n
	n    int            // next output's index into x
	warm bool           // x holds drawn outputs; extend by the recurrence
}

func newAnnealRand(seed int64) *annealRand {
	src := rand.NewSource(seed).(rand.Source64)
	r := &annealRand{}
	for i := range r.x {
		r.x[i] = src.Uint64()
	}
	return r
}

// uint64 returns the next raw output (rngSource.Uint64).
func (r *annealRand) uint64() uint64 {
	i := r.n
	if r.warm {
		// x[n-273] sits rngLen-rngTap slots ahead of x[n-607] in the ring.
		j := i + rngLen - rngTap
		if j >= rngLen {
			j -= rngLen
		}
		r.x[i] += r.x[j]
	}
	v := r.x[i]
	if i++; i == rngLen {
		i, r.warm = 0, true
	}
	r.n = i
	return v
}

// int31 is Rand.Int31: the top 31 bits of Int63.
func (r *annealRand) int31() uint32 { return uint32(r.uint64() << 1 >> 33) }

// float64 is Rand.Float64, including its redraw when the quotient
// rounds to 1.
func (r *annealRand) float64() float64 {
	for {
		if f := float64(r.uint64()<<1>>1) / (1 << 63); f < 1 {
			return f
		}
	}
}

// divisor is a range size prepared for intn: Int31n's rejection bound
// and Lemire's fastmod multiplier, computed once per size instead of
// once per draw.
type divisor struct {
	n   uint32
	max uint32 // largest accepted Int31 draw
	m   uint64 // ceil(2^64 / n); 0 for n == 1
}

// newDivisor prepares n, which must lie in [1, 2^31).
func newDivisor(n int) divisor {
	d := uint32(n)
	return divisor{n: d, max: 1<<31 - 1 - (1<<31)%d, m: ^uint64(0)/uint64(d) + 1}
}

// intn is Rand.Intn(d.n). For a power of two the bound accepts every
// draw and the remainder is Int31n's mask, so one formula covers both of
// Int31n's branches.
func (r *annealRand) intn(d *divisor) int {
	v := r.int31()
	for v > d.max {
		v = r.int31()
	}
	hi, _ := bits.Mul64(d.m*uint64(v), uint64(d.n))
	return int(hi)
}
