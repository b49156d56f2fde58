package interp

import (
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"irred/internal/lang"
)

// The block evaluator's oracle is the tree walker (Env.IterEval), never
// Eval, which is itself a one-iteration EvalBatch.

const batchM = 16 // extent of the node arrays x, w and y

// batchExpr draws a random expression over the iteration's data: the
// loop variable, an iteration-indexed array, reads through both
// indirections (one of them two-dimensional) and earlier scalars.
func batchExpr(rng *rand.Rand, depth int, scalars []string) string {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprint(rng.Intn(9))
		case 1:
			return fmt.Sprintf("%d.%d", rng.Intn(4), 25*(1+rng.Intn(3)))
		case 2:
			return "i"
		case 3:
			return "a[i]"
		case 4:
			return "x[ix[i]]"
		case 5:
			return fmt.Sprintf("w[jx[i], %d]", rng.Intn(2))
		case 6:
			return "ix[i]"
		default:
			if len(scalars) > 0 {
				return scalars[rng.Intn(len(scalars))]
			}
			return "m"
		}
	}
	l, r := batchExpr(rng, depth-1, scalars), batchExpr(rng, depth-1, scalars)
	switch rng.Intn(9) {
	case 0:
		return "(" + l + " + " + r + ")"
	case 1:
		return "(" + l + " - " + r + ")"
	case 2:
		return "(" + l + " * " + r + ")"
	case 3:
		return "(" + l + " / " + r + ")"
	case 4:
		return "-" + "(" + l + ")"
	case 5:
		return "sqrt(abs(" + l + "))"
	case 6:
		return "abs(" + l + ")"
	case 7:
		return "min(" + l + ", " + r + ")"
	default:
		return "max(" + l + ", " + r + ")"
	}
}

// batchSource draws a loop body: a few scalar definitions (some
// redefining an earlier scalar in terms of itself) and two accumulating
// statements whose right-hand sides are the results. Both indirections
// are read somewhere, in a random order, so checked runs can fault
// through either.
func batchSource(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("param n, m\narray ix[n] int\narray jx[n] int\narray a[n]\narray x[m]\narray w[m, 2]\narray y[m]\nloop i = 0, n {\n")
	refs := []string{"x[ix[i]]", "w[jx[i], 1]"}
	rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
	var scalars []string
	for s := 0; s < 1+rng.Intn(4); s++ {
		name := fmt.Sprintf("t%d", s)
		rhs := batchExpr(rng, 3, scalars)
		if s == 0 {
			rhs = refs[0] + " * " + rhs
		}
		fmt.Fprintf(&b, "    %s = %s\n", name, rhs)
		scalars = append(scalars, name)
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&b, "    %s = %s + %s\n", name, name, batchExpr(rng, 2, scalars))
		}
	}
	fmt.Fprintf(&b, "    y[ix[i]] += %s\n", batchExpr(rng, 4, scalars))
	fmt.Fprintf(&b, "    y[jx[i]] -= %s + %s\n", refs[1], batchExpr(rng, 3, scalars))
	b.WriteString("}\n")
	return b.String()
}

// batchCase is a random body bound to data, with the iteration order a
// schedule would hand the evaluator.
type batchCase struct {
	src   string
	env   *Env
	loop  *lang.Loop
	exprs []lang.Expr
	order []int32
}

// newBatchCase draws a body and its data from seed, then poisons the
// indirections at the given positions of the iteration order with
// out-of-range subscripts (alternately too large and negative, and
// alternately through ix and jx).
func newBatchCase(t testing.TB, seed int64, bad []int) *batchCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := batchSource(rng)
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, err, src)
	}
	n := 300 + rng.Intn(500)
	env := NewEnv(prog)
	env.SetParam("n", n)
	env.SetParam("m", batchM)
	ix, jx, a := make([]int32, n), make([]int32, n), make([]float64, n)
	for i := range ix {
		ix[i], jx[i] = int32(rng.Intn(batchM)), int32(rng.Intn(batchM))
		a[i] = rng.NormFloat64()
	}
	x, w := make([]float64, batchM), make([]float64, 2*batchM)
	for e := range x {
		x[e] = rng.NormFloat64() * 4
	}
	for e := range w {
		w[e] = rng.Float64()
	}
	order := make([]int32, n)
	for j, i := range rng.Perm(n) {
		order[j] = int32(i)
	}
	for k, pos := range bad {
		it := order[pos%n]
		v := int32(batchM + 100 + k)
		if k%2 == 1 {
			v = int32(-1 - k)
		}
		if (k/2)%2 == 0 {
			ix[it] = v
		} else {
			jx[it] = v
		}
	}
	for name, v := range map[string][]int32{"ix": ix, "jx": jx} {
		if err := env.BindInt(name, v); err != nil {
			t.Fatal(err)
		}
	}
	for name, v := range map[string][]float64{"a": a, "x": x, "w": w} {
		if err := env.BindFloat(name, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	loop := prog.Loops[0]
	var exprs []lang.Expr
	for _, st := range loop.Body {
		if st.Scalar == "" {
			exprs = append(exprs, st.RHS)
		}
	}
	return &batchCase{src: src, env: env, loop: loop, exprs: exprs, order: order}
}

var treeFault = regexp.MustCompile(`^interp:(\S+): (\w+) subscript (-?\d+) out of range`)

// sameBits is bitwise equality, with every NaN equal to every other.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// check evaluates the case with EvalBatch in blocks of each given length
// and compares every iteration's results, bitwise, with the tree walker's,
// and the recorded fault with the tree walker's first error in iteration
// order. Iterations the tree walker rejects are not compared: the block
// evaluator clamps them and carries on.
func (c *batchCase) check(t testing.TB, seed int64, lens []int) {
	t.Helper()
	r := len(c.exprs)
	want := make([]float64, len(c.order)*r)
	ok := make([]bool, len(c.order))
	var first error
	for j, it := range c.order {
		err := c.env.IterEval(c.loop, int(it), c.exprs, want[j*r:(j+1)*r])
		ok[j] = err == nil
		if err != nil && first == nil {
			first = err
		}
	}
	code, err := c.env.CompileIter(c.loop, c.exprs)
	if err != nil {
		t.Fatalf("seed %d: compile: %v\n%s", seed, err, c.src)
	}
	for _, L := range lens {
		ev := code.Clone()
		got := make([]float64, len(c.order)*r)
		for lo := 0; lo < len(c.order); lo += L {
			hi := min(lo+L, len(c.order))
			ev.EvalBatch(c.order[lo:hi], got[lo*r:hi*r])
		}
		for j := range c.order {
			if !ok[j] {
				continue
			}
			for k := 0; k < r; k++ {
				if g, w := got[j*r+k], want[j*r+k]; !sameBits(g, w) {
					t.Fatalf("seed %d block %d: iteration %d result %d = %v, tree walker %v\n%s", seed, L, c.order[j], k, g, w, c.src)
				}
			}
		}
		switch {
		case first == nil && ev.Err() != nil:
			t.Fatalf("seed %d block %d: fault %v on clean data\n%s", seed, L, ev.Err(), c.src)
		case first != nil && ev.Err() == nil:
			t.Fatalf("seed %d block %d: tree walker fails (%v), block evaluator records nothing\n%s", seed, L, first, c.src)
		case first != nil:
			m := treeFault.FindStringSubmatch(first.Error())
			if m == nil {
				t.Fatalf("seed %d: unexpected tree-walker error %v", seed, first)
			}
			msg := ev.Err().Error()
			if !strings.Contains(msg, " "+m[1]+": "+m[2]+"[") || !strings.Contains(msg, "subscript "+m[3]+" out of range") {
				t.Fatalf("seed %d block %d: recorded %q, first fault in iteration order is %q\n%s", seed, L, msg, first, c.src)
			}
		}
	}
}

var batchLens = []int{1, BatchLen - 1, BatchLen, BatchLen + 1}

// TestEvalBatchMatchesTreeWalker: random bodies over clean data agree
// bitwise with the tree walker at every block length, checked and with
// every check elided.
func TestEvalBatchMatchesTreeWalker(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := newBatchCase(t, seed, nil)
		c.check(t, seed, batchLens)

		all := func(*lang.IndexExpr) bool { return true }
		un, err := c.env.CompileIterOpts(c.loop, c.exprs, CompileOpts{Unchecked: all})
		if err != nil {
			t.Fatal(err)
		}
		r := len(c.exprs)
		got, one := make([]float64, len(c.order)*r), make([]float64, r)
		un.EvalBatch(c.order, got)
		for j, it := range c.order {
			if err := c.env.IterEval(c.loop, int(it), c.exprs, one); err != nil {
				t.Fatal(err)
			}
			for k := range one {
				if !sameBits(got[j*r+k], one[k]) {
					t.Fatalf("seed %d unchecked: iteration %d result %d = %v, tree walker %v", seed, it, k, got[j*r+k], one[k])
				}
			}
		}
	}
}

// TestEvalBatchLayout: an explicit Stride and Slots put each result at its
// slot of the iteration's outputs, bitwise as in the dense layout, and
// leave the slots no result names as they were.
func TestEvalBatchLayout(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		c := newBatchCase(t, seed, nil)
		r := len(c.exprs)
		dense, err := c.env.CompileIter(c.loop, c.exprs)
		if err != nil {
			t.Fatal(err)
		}
		stride, slots := 2*r+1, make([]int, r)
		for k := range slots {
			slots[k] = 2 * (r - 1 - k) // reversed, every other slot
		}
		spread, err := c.env.CompileIterOpts(c.loop, c.exprs, CompileOpts{Stride: stride, Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		if spread.Stride() != stride || spread.NumResults() != r {
			t.Fatalf("Stride %d NumResults %d, want %d %d", spread.Stride(), spread.NumResults(), stride, r)
		}
		want, got := make([]float64, len(c.order)*r), make([]float64, len(c.order)*stride)
		for j := range got {
			got[j] = -7
		}
		dense.EvalBatch(c.order, want)
		spread.EvalBatch(c.order, got)
		named := map[int]int{}
		for k, s := range slots {
			named[s] = k
		}
		for j := range c.order {
			for s := 0; s < stride; s++ {
				g := got[j*stride+s]
				if k, ok := named[s]; ok && !sameBits(g, want[j*r+k]) {
					t.Fatalf("seed %d: iteration %d result %d = %v at slot %d, dense %v", seed, c.order[j], k, g, s, want[j*r+k])
				} else if !ok && g != -7 {
					t.Fatalf("seed %d: iteration %d wrote unnamed slot %d", seed, c.order[j], s)
				}
			}
		}
	}
	c := newBatchCase(t, 1, nil)
	if _, err := c.env.CompileIterOpts(c.loop, c.exprs, CompileOpts{Stride: 1, Slots: []int{0, 1}}); err == nil {
		t.Error("a slot outside the stride must not compile")
	}
}

// TestRegistersReused: a scalar's register is free after its last read,
// so a chain of scalars each read only by the next needs one register.
func TestRegistersReused(t *testing.T) {
	prog, err := lang.Parse("param n\narray x[n]\narray y[n]\nloop i = 0, n {\n    a = x[i] * 2\n    b = a + 1\n    c = b * b\n    d = c - a0\n    y[i] += d\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(prog)
	env.SetParam("n", 3)
	env.SetParam("a0", 1)
	if err := env.BindFloat("x", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	loop := prog.Loops[0]
	code, err := env.CompileIter(loop, []lang.Expr{loop.Body[4].RHS})
	if err != nil {
		t.Fatal(err)
	}
	if code.nRegs != 1 {
		t.Errorf("chain of four scalars uses %d registers, want 1", code.nRegs)
	}
	got := make([]float64, 3)
	code.EvalBatch([]int32{0, 1, 2}, got)
	for i, want := range []float64{8, 24, 48} {
		if got[i] != want {
			t.Errorf("iteration %d = %v, want %v", i, got[i], want)
		}
	}
}

// TestEvalBatchFirstFault places out-of-range subscripts at block
// boundaries and inside blocks; the recorded fault must be the one of the
// first faulting iteration in order, whichever instruction faults in
// other lanes first.
func TestEvalBatchFirstFault(t *testing.T) {
	placements := [][]int{
		{0},
		{BatchLen - 1},
		{BatchLen},
		{BatchLen + 1},
		{299},
		{200, 3},
		{BatchLen + 7, BatchLen + 2, 9},
		{5, 4, 3, 2},
	}
	for seed := int64(1); seed <= 24; seed++ {
		for _, bad := range placements {
			newBatchCase(t, seed, bad).check(t, seed, batchLens)
		}
	}
}

// FuzzEvalBatch drives the same comparison from fuzzed seeds, block
// lengths and fault placements.
func FuzzEvalBatch(f *testing.F) {
	f.Add(int64(1), uint16(BatchLen), []byte{})
	f.Add(int64(2), uint16(1), []byte{0, 7})
	f.Add(int64(3), uint16(BatchLen+1), []byte{255, 1})
	f.Fuzz(func(t *testing.T, seed int64, blockLen uint16, bad []byte) {
		if len(bad) > 8 {
			bad = bad[:8]
		}
		pos := make([]int, len(bad))
		for k, b := range bad {
			pos[k] = int(b) * 3 // spread over the first 765 positions
		}
		newBatchCase(t, seed, pos).check(t, seed, []int{1 + int(blockLen)%(3*BatchLen)})
	})
}
