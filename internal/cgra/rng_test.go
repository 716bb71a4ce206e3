package cgra

import (
	"math/rand"
	"testing"
)

// TestAnnealRandMatchesMathRand: the annealer's generator is
// rand.New(rand.NewSource(seed)) call for call. Intn and Float64 calls
// interleave in a seeded pattern over far more than one 607-output
// prefix, for range sizes that cover Int31n's mask branch (powers of
// two, 1), its rejection loop (a prime just above 2^30 rejects about
// half the draws), and the sizes the annealer draws.
func TestAnnealRandMatchesMathRand(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 32, 1 << 20, 1<<30 + 3, 2147483629, 16, 208, 512}
	divs := make([]divisor, len(sizes))
	for i, n := range sizes {
		divs[i] = newDivisor(n)
	}
	for _, seed := range []int64{0, 1, -3, 12345} {
		want := rand.New(rand.NewSource(seed))
		got := newAnnealRand(seed)
		pick := rand.New(rand.NewSource(seed ^ 0x5eed))
		for call := 0; call < 20000; call++ {
			if k := pick.Intn(len(sizes) + 1); k < len(sizes) {
				w, g := want.Intn(sizes[k]), got.intn(&divs[k])
				if w != g {
					t.Fatalf("seed %d call %d: Intn(%d) = %d, replica %d", seed, call, sizes[k], w, g)
				}
			} else if w, g := want.Float64(), got.float64(); w != g {
				t.Fatalf("seed %d call %d: Float64 = %v, replica %v", seed, call, w, g)
			}
		}
	}
}

// TestDivisorRemainder: the fastmod remainder equals v % n across the
// edges of the 31-bit draw range.
func TestDivisorRemainder(t *testing.T) {
	vs := []uint32{0, 1, 2, 3, 1<<16 - 1, 1 << 16, 1<<30 - 1, 1 << 30, 1<<31 - 2, 1<<31 - 1}
	for _, n := range []int{1, 2, 3, 5, 7, 64, 607, 65537, 1<<30 + 3, 1<<31 - 1} {
		d := newDivisor(n)
		for _, v := range vs {
			r := &annealRand{}
			// Seed the ring so the next int31 is exactly v.
			r.x[0] = uint64(v) << 32
			if v > d.max {
				continue
			}
			if got := r.intn(&d); got != int(v%uint32(n)) {
				t.Errorf("%d mod %d = %d, want %d", v, n, got, v%uint32(n))
			}
		}
	}
}
