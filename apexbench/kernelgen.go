package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// genKernel writes one random kernel in the internal/frontend grammar:
// an expression DAG of about ops operations over 3-10 word inputs and up
// to two bit inputs. Operands favour recent values, so the DAG is deep
// rather than a flat fan-in, and every word value no statement consumed
// is folded into the outputs, so the optimizer removes little beyond
// what constant folding and CSE find. Bit values come only from
// comparisons and bit inputs and feed only select conditions, matching
// the grammar's typing.
func genKernel(rng *rand.Rand, ops int) string {
	var b strings.Builder
	var words, bits []string
	used := map[string]bool{}
	nIn := 3 + rng.Intn(8)
	ins := make([]string, nIn)
	for i := range ins {
		ins[i] = fmt.Sprintf("x%d", i)
	}
	words = append(words, ins...)
	fmt.Fprintf(&b, "input %s\n", strings.Join(ins, ", "))
	if nb := rng.Intn(3); nb > 0 {
		var bins []string
		for i := 0; i < nb; i++ {
			bins = append(bins, fmt.Sprintf("c%d", i))
		}
		bits = append(bits, bins...)
		fmt.Fprintf(&b, "inputb %s\n", strings.Join(bins, ", "))
	}
	pick := func() string {
		var w string
		if rng.Intn(10) < 7 {
			w = words[max(0, len(words)-8)+rng.Intn(min(8, len(words)))]
		} else {
			w = words[rng.Intn(len(words))]
		}
		used[w] = true
		return w
	}
	// Binary operations take two distinct operands: self-cancelling
	// forms such as "x - x" fold to constants, and a kernel output that
	// folds to a constant does not map (see README.md).
	pick2 := func() (string, string) {
		x := pick()
		for {
			if y := pick(); y != x {
				return x, y
			}
		}
	}
	bin := func(op string) string {
		x, y := pick2()
		return x + " " + op + " " + y
	}
	konst := func() string { return fmt.Sprint(1 + rng.Intn(255)) }
	emitted := 0
	for n := 0; emitted < ops; n++ {
		name := fmt.Sprintf("t%d", n)
		var expr string
		isBit := false
		cost := 1
		switch r := rng.Intn(100); {
		case r < 22:
			expr = bin("+")
		case r < 30:
			expr = pick() + " + " + konst()
		case r < 40:
			expr = pick() + " * " + konst()
		case r < 44:
			expr = bin("*")
		case r < 50:
			expr = bin("-")
		case r < 58:
			expr = bin([]string{"&", "|", "^"}[rng.Intn(3)])
		case r < 65:
			expr = pick() + " " + []string{"<<", ">>", ">>>"}[rng.Intn(3)] + " " + fmt.Sprint(1+rng.Intn(4))
		case r < 73:
			x, y := pick2()
			expr = fmt.Sprintf("%s(%s, %s)", []string{"min", "max", "umin", "umax"}[rng.Intn(4)], x, y)
		case r < 76:
			expr = fmt.Sprintf("abs(%s)", pick())
		case r < 80:
			lo := rng.Intn(64)
			expr = fmt.Sprintf("clamp(%s, %d, %d)", pick(), lo, lo+64+rng.Intn(192))
			cost = 2
		case r < 90:
			expr = bin([]string{"<", "<=", ">", ">=", "==", "!="}[rng.Intn(6)])
			isBit = true
		default:
			if len(bits) == 0 {
				x, y := pick2()
				expr = fmt.Sprintf("ult(%s, %s)", x, y)
				isBit = true
			} else {
				c := bits[rng.Intn(len(bits))]
				used[c] = true
				x, y := pick2()
				expr = fmt.Sprintf("select(%s, %s, %s)", c, x, y)
			}
		}
		fmt.Fprintf(&b, "%s = %s\n", name, expr)
		emitted += cost
		if isBit {
			bits = append(bits, name)
		} else {
			words = append(words, name)
		}
	}
	var live []string
	for _, w := range words[nIn:] {
		if !used[w] {
			live = append(live, w)
		}
	}
	if len(live) == 0 {
		live = append(live, words[len(words)-1])
	}
	nOut := min(len(live), 1+rng.Intn(3))
	for o := 0; o < nOut; o++ {
		var terms []string
		for i := o; i < len(live); i += nOut {
			terms = append(terms, live[i])
		}
		fmt.Fprintf(&b, "out y%d = %s\n", o, strings.Join(terms, " + "))
	}
	return b.String()
}

// kernelSize draws a kernel's operation count log-uniformly from
// [20, 200]: many small kernels, a tail of large ones.
func kernelSize(rng *rand.Rand) int {
	return int(math.Round(math.Exp(math.Log(20) + rng.Float64()*(math.Log(200)-math.Log(20)))))
}
