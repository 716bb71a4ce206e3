package ir

import (
	"fmt"
	"sort"
	"strings"
)

// ExprKind discriminates symbolic expression nodes.
type ExprKind uint8

const (
	ExprVar ExprKind = iota
	ExprConst
	ExprOp
)

// Expr is a normalized symbolic expression over 16-bit words. Expressions
// are the "formal model" of this reproduction: the rewrite-rule
// synthesizer proves a PE configuration implements an operation by
// normalizing both to canonical expressions and comparing keys (then
// cross-checks by simulation). Expressions are immutable after
// construction via the constructors below.
type Expr struct {
	Kind ExprKind
	Op   Op
	Val  uint16
	Name string
	Kids []*Expr
	key  string
}

// Var returns a variable expression.
func Var(name string) *Expr {
	e := &Expr{Kind: ExprVar, Name: name}
	e.key = "v:" + name
	return e
}

// ConstExpr returns a constant expression.
func ConstExpr(v uint16) *Expr {
	e := &Expr{Kind: ExprConst, Val: v}
	e.key = fmt.Sprintf("c:%d", v)
	return e
}

// Key returns the canonical key; equal keys mean structurally identical
// normalized expressions (and therefore semantic equality).
func (e *Expr) Key() string { return e.key }

func (e *Expr) String() string {
	switch e.Kind {
	case ExprVar:
		return e.Name
	case ExprConst:
		return fmt.Sprintf("%d", e.Val)
	default:
		parts := make([]string, len(e.Kids))
		for i, k := range e.Kids {
			parts[i] = k.String()
		}
		if e.Op == OpLUT {
			return fmt.Sprintf("lut[%#x](%s)", e.Val, strings.Join(parts, ", "))
		}
		return fmt.Sprintf("%s(%s)", e.Op, strings.Join(parts, ", "))
	}
}

// Apply builds the normalized expression op(args...). val carries the
// immediate for LUT/ROM nodes. Normalization performs constant folding,
// identity elimination, involution collapsing, subtraction lowering
// (sub(a,b) → add(a, neg(b))), and flattening plus canonical sorting of
// associative-commutative operators.
func Apply(op Op, val uint16, args ...*Expr) *Expr {
	// Constant folding first: if every operand is constant the op is too.
	allConst := len(args) > 0
	for _, a := range args {
		if a.Kind != ExprConst {
			allConst = false
			break
		}
	}
	if allConst {
		vals := make([]uint16, len(args))
		for i, a := range args {
			vals[i] = a.Val
		}
		return ConstExpr(EvalOp(op, vals, val))
	}

	switch op {
	case OpSub:
		// Lower to add(a, neg(b)) so that sub chains and add/neg mixes
		// normalize to the same form.
		return Apply(OpAdd, 0, args[0], Apply(OpNeg, 0, args[1]))
	case OpNeg:
		a := args[0]
		if a.Kind == ExprOp && a.Op == OpNeg {
			return a.Kids[0] // neg(neg(x)) = x
		}
	case OpNot:
		a := args[0]
		if a.Kind == ExprOp && a.Op == OpNot {
			return a.Kids[0]
		}
	case OpAdd:
		args = flattenAC(OpAdd, args)
		args = foldConsts(OpAdd, 0, args)
		args = dropIdentity(args, 0)
		args = cancelNegPairs(args)
		if len(args) == 0 {
			return ConstExpr(0)
		}
		if len(args) == 1 {
			return args[0]
		}
		sortExprs(args)
	case OpMul:
		args = flattenAC(OpMul, args)
		args = foldConsts(OpMul, 1, args)
		for _, a := range args {
			if a.Kind == ExprConst && a.Val == 0 {
				return ConstExpr(0)
			}
		}
		args = dropIdentity(args, 1)
		if len(args) == 0 {
			return ConstExpr(1)
		}
		if len(args) == 1 {
			return args[0]
		}
		sortExprs(args)
	case OpAnd:
		args = flattenAC(OpAnd, args)
		args = foldConsts(OpAnd, 0xffff, args)
		for _, a := range args {
			if a.Kind == ExprConst && a.Val == 0 {
				return ConstExpr(0)
			}
		}
		args = dropIdentity(args, 0xffff)
		args = dedupe(args)
		if len(args) == 0 {
			return ConstExpr(0xffff)
		}
		if len(args) == 1 {
			return args[0]
		}
		sortExprs(args)
	case OpOr:
		args = flattenAC(OpOr, args)
		args = foldConsts(OpOr, 0, args)
		for _, a := range args {
			if a.Kind == ExprConst && a.Val == 0xffff {
				return ConstExpr(0xffff)
			}
		}
		args = dropIdentity(args, 0)
		args = dedupe(args)
		if len(args) == 0 {
			return ConstExpr(0)
		}
		if len(args) == 1 {
			return args[0]
		}
		sortExprs(args)
	case OpXor:
		args = flattenAC(OpXor, args)
		args = foldConsts(OpXor, 0, args)
		args = dropIdentity(args, 0)
		args = cancelXorPairs(args)
		if len(args) == 0 {
			return ConstExpr(0)
		}
		if len(args) == 1 {
			return args[0]
		}
		sortExprs(args)
	case OpSMin, OpSMax, OpUMin, OpUMax:
		args = flattenAC(op, args)
		args = dedupe(args)
		if len(args) == 1 {
			return args[0]
		}
		sortExprs(args)
	case OpEq, OpNeq:
		if args[0].key == args[1].key {
			if op == OpEq {
				return ConstExpr(1)
			}
			return ConstExpr(0)
		}
		sorted := []*Expr{args[0], args[1]}
		sortExprs(sorted)
		args = sorted
	case OpShl, OpLshr, OpAshr:
		if args[1].Kind == ExprConst && args[1].Val&15 == 0 {
			return args[0]
		}
	case OpSel:
		if args[0].Kind == ExprConst {
			if args[0].Val&1 != 0 {
				return args[1]
			}
			return args[2]
		}
		if args[1].key == args[2].key {
			return args[1]
		}
	}

	e := &Expr{Kind: ExprOp, Op: op, Val: val, Kids: args}
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = a.key
	}
	imm := ""
	if op == OpLUT || op == OpRom {
		imm = fmt.Sprintf("/%d", val)
	}
	e.key = fmt.Sprintf("%s%s(%s)", op.Name(), imm, strings.Join(parts, ","))
	return e
}

// flattenAC splices operands of the same associative-commutative op into
// the argument list.
func flattenAC(op Op, args []*Expr) []*Expr {
	out := make([]*Expr, 0, len(args))
	for _, a := range args {
		if a.Kind == ExprOp && a.Op == op {
			out = append(out, a.Kids...)
		} else {
			out = append(out, a)
		}
	}
	return out
}

// foldConsts combines all constant operands into at most one.
func foldConsts(op Op, identity uint16, args []*Expr) []*Expr {
	acc := identity
	found := false
	out := args[:0:0]
	for _, a := range args {
		if a.Kind == ExprConst {
			acc = EvalOp(op, []uint16{acc, a.Val}, 0)
			found = true
		} else {
			out = append(out, a)
		}
	}
	if found && acc != identity {
		out = append(out, ConstExpr(acc))
	}
	return out
}

func dropIdentity(args []*Expr, identity uint16) []*Expr {
	out := args[:0:0]
	for _, a := range args {
		if a.Kind == ExprConst && a.Val == identity {
			continue
		}
		out = append(out, a)
	}
	return out
}

// cancelNegPairs removes x together with neg(x) from an add operand list.
func cancelNegPairs(args []*Expr) []*Expr {
	removed := make([]bool, len(args))
	for i := range args {
		if removed[i] {
			continue
		}
		for j := range args {
			if i == j || removed[j] {
				continue
			}
			a, b := args[i], args[j]
			if b.Kind == ExprOp && b.Op == OpNeg && b.Kids[0].key == a.key {
				removed[i], removed[j] = true, true
				break
			}
		}
	}
	out := args[:0:0]
	for i, a := range args {
		if !removed[i] {
			out = append(out, a)
		}
	}
	return out
}

// cancelXorPairs removes pairs of identical operands from an xor list.
func cancelXorPairs(args []*Expr) []*Expr {
	counts := make(map[string]int)
	for _, a := range args {
		counts[a.key]++
	}
	out := args[:0:0]
	emitted := make(map[string]int)
	for _, a := range args {
		if counts[a.key]%2 == 1 && emitted[a.key] == 0 {
			out = append(out, a)
			emitted[a.key] = 1
		}
	}
	return out
}

// dedupe keeps one copy of each distinct operand (idempotent ops).
func dedupe(args []*Expr) []*Expr {
	seen := make(map[string]bool)
	out := args[:0:0]
	for _, a := range args {
		if !seen[a.key] {
			seen[a.key] = true
			out = append(out, a)
		}
	}
	return out
}

func sortExprs(args []*Expr) {
	sort.Slice(args, func(i, j int) bool { return args[i].key < args[j].key })
}

// EvalExpr evaluates a symbolic expression under a variable binding.
func EvalExpr(e *Expr, env map[string]uint16) uint16 {
	switch e.Kind {
	case ExprVar:
		return env[e.Name]
	case ExprConst:
		return e.Val
	default:
		// N-ary flattened AC ops are evaluated by left fold; all our AC
		// ops are associative so the fold order does not matter.
		if len(e.Kids) > e.Op.Arity() && e.Op.Arity() == 2 {
			acc := EvalExpr(e.Kids[0], env)
			for _, k := range e.Kids[1:] {
				acc = EvalOp(e.Op, []uint16{acc, EvalExpr(k, env)}, e.Val)
			}
			return acc
		}
		args := make([]uint16, len(e.Kids))
		for i, k := range e.Kids {
			args[i] = EvalExpr(k, env)
		}
		return EvalOp(e.Op, args, e.Val)
	}
}

// Vars returns the sorted set of variable names appearing in e.
func (e *Expr) Vars() []string {
	set := make(map[string]bool)
	var walk func(*Expr)
	walk = func(x *Expr) {
		if x.Kind == ExprVar {
			set[x.Name] = true
		}
		for _, k := range x.Kids {
			walk(k)
		}
	}
	walk(e)
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SymbolicEval computes the canonical symbolic expression of every output
// of the graph, with input nodes as variables (named by their IO name).
// Registers, memories and FIFOs are transparent, matching Eval.
func (g *Graph) SymbolicEval() (map[string]*Expr, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	exprs := make([]*Expr, len(g.Nodes))
	outs := make(map[string]*Expr)
	for _, v := range order {
		n := &g.Nodes[v]
		switch n.Op {
		case OpInput, OpInputB:
			exprs[v] = Var(n.Name)
		case OpConst, OpConstB:
			exprs[v] = ConstExpr(n.Val)
		case OpOutput:
			exprs[v] = exprs[n.Args[0]]
			outs[n.Name] = exprs[v]
		case OpReg, OpMem, OpRegFileFIFO:
			exprs[v] = exprs[n.Args[0]]
		default:
			args := make([]*Expr, len(n.Args))
			for i, a := range n.Args {
				args[i] = exprs[a]
			}
			exprs[v] = Apply(n.Op, n.Val, args...)
		}
	}
	return outs, nil
}
