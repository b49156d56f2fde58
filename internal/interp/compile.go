package interp

import (
	"fmt"
	"math"

	"irred/internal/lang"
)

// This file compiles IRL expressions to a small stack bytecode so that
// evaluation inside the phase runtime runs without AST walking or map
// lookups — the role the EARTH-C backend's code generation played. A Code
// object evaluates a loop's scalar definitions and a set of result
// expressions for a block of iterations at a time.

type opcode uint8

const (
	opConst opcode = iota // push constants[a]
	opIter                // push float64(i)
	opLoad1               // push f64[a][idx] where idx = pop()
	opLoadI               // push i32[a][idx] as float64 where idx = pop()
	opReg                 // push regs[a]
	opAdd
	opSub
	opMul
	opDiv
	opNeg
	opSqrt
	opAbs
	opMin
	opMax
	opStore  // regs[a] = pop()
	opResult // out[a] = pop()

	// Checked variants, emitted unless a dataflow proof covers the access.
	opRange  // validate top of stack against checks[a]; fault + clamp to 0 on failure
	opLoad1C // opLoad1 with the index validated against checks[a] first
	opLoadIC // opLoadI with the index validated against checks[a] first
)

type instr struct {
	op opcode
	a  int32
}

// check is one range-check site: the exclusive extent the value must stay
// under and a prerendered message prefix naming the reference.
type check struct {
	arr int32  // f64/i32 slot for checked loads; -1 for subscript checks
	ext int32  // exclusive upper bound (values must be integers in [0, ext))
	msg string // "pos: ref" used in fault reports
}

// Code is a compiled evaluator over blocks of iterations.
type Code struct {
	prog   []instr
	consts []float64
	f64    [][]float64 // referenced float arrays, resolved at compile time
	i32    [][]int32   // referenced int arrays
	checks []check
	nRegs  int
	nOut   int
	stride int       // output slots per iteration (opResult's a is the slot)
	depth  int       // maximum operand-stack depth of prog
	stack  []float64 // depth vectors of BatchLen lanes
	regs   []float64 // nRegs vectors of BatchLen lanes
	one    [1]int32  // Eval's one-iteration block
	err    error     // first range fault, nil while clean
}

// BatchLen is the number of iterations one pass of the evaluator covers:
// the lane count of its vector stack and registers. EvalBatch splits
// longer blocks into passes of this length. The phase runtime hands the
// evaluator blocks of this length (rts.ContribBlock).
const BatchLen = 256

// CompileOpts controls bounds-check emission.
type CompileOpts struct {
	// Unchecked reports whether the given array reference occurrence is
	// proven in-bounds (by identity), licensing the compiler to elide its
	// range checks. Nil means nothing is proven: every access is checked.
	// The caller owns the soundness of the predicate — the canonical
	// implementation is dataflow.Facts.RefProven over a proof computed
	// from this same environment's bindings.
	Unchecked func(ix *lang.IndexExpr) bool

	// Stride and Slots lay out EvalBatch's output: result r of the j-th
	// iteration lands in out[j*Stride+Slots[r]], and slots no result names
	// are left untouched. Zero values mean the dense layout, Stride =
	// len(results) and Slots[r] = r.
	Stride int
	Slots  []int
}

// CompileIter compiles loop l's scalar definitions followed by the given
// result expressions, with every array access range-checked (faults are
// recorded, not panics — see Err). The returned Code is bound to the
// environment's current array bindings (rebinding arrays requires
// recompilation) and is NOT safe for concurrent use — clone one per
// goroutine with Clone.
func (e *Env) CompileIter(l *lang.Loop, results []lang.Expr) (*Code, error) {
	return e.CompileIterOpts(l, results, CompileOpts{})
}

// CompileIterOpts is CompileIter with explicit bounds-check control.
func (e *Env) CompileIterOpts(l *lang.Loop, results []lang.Expr, opts CompileOpts) (*Code, error) {
	c := &compiler{env: e, loop: l, opts: opts, regOf: map[string]int32{}}
	stride, slots := opts.Stride, opts.Slots
	if slots == nil {
		stride, slots = len(results), make([]int, len(results))
		for r := range slots {
			slots[r] = r
		}
	}
	if len(slots) != len(results) {
		return nil, fmt.Errorf("interp: %d output slots for %d results", len(slots), len(results))
	}
	for _, s := range slots {
		if s < 0 || s >= stride {
			return nil, fmt.Errorf("interp: output slot %d outside stride %d", s, stride)
		}
	}
	// A scalar's register returns to the pool after the scalar's last
	// read, so the evaluator holds vectors only for the scalars live at
	// once, not for every scalar the body defines.
	last := lastReads(l, results)
	var pool []int32
	nRegs := int32(0)
	release := func(name string) {
		pool = append(pool, c.regOf[name])
		delete(c.regOf, name)
	}
	for s, st := range l.Body {
		if st.Scalar == "" {
			continue
		}
		if err := c.expr(st.RHS); err != nil {
			return nil, err
		}
		for _, name := range readsOf(st.RHS) {
			if _, live := c.regOf[name]; live && last[name] == s {
				release(name)
			}
		}
		reg, ok := c.regOf[st.Scalar]
		if !ok {
			if n := len(pool); n > 0 {
				reg, pool = pool[n-1], pool[:n-1]
			} else {
				reg, nRegs = nRegs, nRegs+1
			}
			c.regOf[st.Scalar] = reg
		}
		c.emit(instr{op: opStore, a: reg})
		if last[st.Scalar] <= s {
			release(st.Scalar)
		}
	}
	for j, r := range results {
		if err := c.expr(r); err != nil {
			return nil, err
		}
		c.emit(instr{op: opResult, a: int32(slots[j])})
	}
	code := &Code{
		prog:   c.prog,
		consts: c.consts,
		f64:    c.f64,
		i32:    c.i32,
		checks: c.checks,
		nRegs:  int(nRegs),
		nOut:   len(results),
		stride: stride,
		depth:  maxDepth(c.prog),
	}
	code.alloc()
	return code, nil
}

// readsOf lists the identifiers e reads, with repeats.
func readsOf(e lang.Expr) []string {
	var out []string
	lang.Walk(e, func(x lang.Expr) {
		if id, ok := x.(*lang.Ident); ok {
			out = append(out, id.Name)
		}
	})
	return out
}

// lastReads maps each identifier read by loop l's scalar definitions or
// by the results to the position of its last read: the body statement's
// index, or len(l.Body)+j for result j. An identifier never read is
// absent, and reads as position 0.
func lastReads(l *lang.Loop, results []lang.Expr) map[string]int {
	last := map[string]int{}
	for s, st := range l.Body {
		if st.Scalar != "" {
			for _, name := range readsOf(st.RHS) {
				last[name] = s
			}
		}
	}
	for j, r := range results {
		for _, name := range readsOf(r) {
			last[name] = len(l.Body) + j
		}
	}
	return last
}

// maxDepth is the deepest the operand stack gets while running prog.
func maxDepth(prog []instr) int {
	d, deepest := 0, 0
	for _, in := range prog {
		switch in.op {
		case opConst, opIter, opReg:
			d++
		case opAdd, opSub, opMul, opDiv, opMin, opMax, opStore, opResult:
			d--
		}
		deepest = max(deepest, d)
	}
	return deepest
}

// alloc gives the evaluator its private vector stack and registers.
func (c *Code) alloc() {
	c.stack = make([]float64, c.depth*BatchLen)
	c.regs = make([]float64, c.nRegs*BatchLen)
}

// Clone returns an independent evaluator sharing the immutable program and
// array bindings, for concurrent use from several goroutines. The clone
// starts with a clean fault state.
func (c *Code) Clone() *Code {
	out := *c
	out.alloc()
	out.err = nil
	return &out
}

// NumResults reports how many results the program computes per
// iteration.
func (c *Code) NumResults() int { return c.nOut }

// Stride reports how many output slots each iteration occupies: out of
// Eval needs at least Stride entries, out of EvalBatch len(iters)*Stride.
func (c *Code) Stride() int { return c.stride }

// NumChecks reports how many range-check sites the compiled code carries;
// zero means the whole loop runs unchecked (fully proven).
func (c *Code) NumChecks() int { return len(c.checks) }

// Err reports the first range fault recorded by checked execution, or nil.
// A faulting access clamps to a safe value and evaluation continues, so a
// run always completes; callers inspect Err afterwards. Clones fault
// independently.
func (c *Code) Err() error { return c.err }

// Eval runs the program for iteration i, writing the results into out
// (len >= Stride). It is EvalBatch over a one-iteration block.
func (c *Code) Eval(i int, out []float64) {
	c.one[0] = int32(i)
	c.EvalBatch(c.one[:], out)
}

// EvalBatch runs the program for every iteration in iters, writing the
// results iteration-major: iters[j]'s results occupy out[j*Stride():],
// result r at its output slot (slot r in the dense layout). Each instruction runs across a
// pass of up to BatchLen iterations before the next one starts, so
// dispatch is paid once per pass rather than once per iteration. The
// results, and the first fault recorded, are those of evaluating the
// iterations one by one in order.
func (c *Code) EvalBatch(iters []int32, out []float64) {
	for lo := 0; lo < len(iters); lo += BatchLen {
		hi := min(lo+BatchLen, len(iters))
		c.pass(iters[lo:hi], out[lo*c.stride:hi*c.stride])
	}
}

// firstFault tracks the fault iteration-by-iteration execution of a pass
// would record first: the lowest lane wins, and among equal lanes the
// earliest instruction (instructions run in order, so a later one never
// displaces an earlier one at the same lane).
type firstFault struct {
	lane int
	ck   *check
	v    float64
}

func (f *firstFault) note(lane int, ck *check, v float64) {
	if lane < f.lane {
		*f = firstFault{lane: lane, ck: ck, v: v}
	}
}

// pass evaluates one block of at most BatchLen iterations.
func (c *Code) pass(iters []int32, out []float64) {
	n := len(iters)
	vec := func(k int) []float64 { return c.stack[k*BatchLen : k*BatchLen+n] }
	ff := firstFault{lane: n}
	sp := 0 // operand-stack depth
	for _, in := range c.prog {
		switch in.op {
		case opConst:
			d, v := vec(sp), c.consts[in.a]
			for j := range d {
				d[j] = v
			}
			sp++
		case opIter:
			d := vec(sp)
			for j, it := range iters {
				d[j] = float64(it)
			}
			sp++
		case opReg:
			copy(vec(sp), c.regs[int(in.a)*BatchLen:])
			sp++
		case opLoad1:
			d, arr := vec(sp-1), c.f64[in.a]
			for j, x := range d {
				d[j] = arr[int(x)]
			}
		case opLoadI:
			d, arr := vec(sp-1), c.i32[in.a]
			for j, x := range d {
				d[j] = float64(arr[int(x)])
			}
		case opAdd:
			sp--
			a, b := vec(sp-1), vec(sp)
			for j := range a {
				a[j] += b[j]
			}
		case opSub:
			sp--
			a, b := vec(sp-1), vec(sp)
			for j := range a {
				a[j] -= b[j]
			}
		case opMul:
			sp--
			a, b := vec(sp-1), vec(sp)
			for j := range a {
				a[j] *= b[j]
			}
		case opDiv:
			sp--
			a, b := vec(sp-1), vec(sp)
			for j := range a {
				a[j] /= b[j]
			}
		case opMin:
			sp--
			a, b := vec(sp-1), vec(sp)
			for j := range a {
				a[j] = math.Min(a[j], b[j])
			}
		case opMax:
			sp--
			a, b := vec(sp-1), vec(sp)
			for j := range a {
				a[j] = math.Max(a[j], b[j])
			}
		case opNeg:
			d := vec(sp - 1)
			for j := range d {
				d[j] = -d[j]
			}
		case opSqrt:
			d := vec(sp - 1)
			for j := range d {
				d[j] = math.Sqrt(d[j])
			}
		case opAbs:
			d := vec(sp - 1)
			for j := range d {
				d[j] = math.Abs(d[j])
			}
		case opStore:
			sp--
			copy(c.regs[int(in.a)*BatchLen:], vec(sp))
		case opResult:
			sp--
			for j, v := range vec(sp) {
				out[j*c.stride+int(in.a)] = v
			}
		case opRange:
			ck, d := &c.checks[in.a], vec(sp-1)
			for j, v := range d {
				if !(v >= 0 && v < float64(ck.ext)) || v != math.Trunc(v) {
					ff.note(j, ck, v)
					d[j] = 0
				}
			}
		case opLoad1C:
			ck, d := &c.checks[in.a], vec(sp-1)
			arr := c.f64[ck.arr]
			for j, x := range d {
				idx := int(x)
				if idx < 0 || idx >= len(arr) {
					ff.note(j, ck, x)
					d[j] = 0
				} else {
					d[j] = arr[idx]
				}
			}
		case opLoadIC:
			ck, d := &c.checks[in.a], vec(sp-1)
			arr := c.i32[ck.arr]
			for j, x := range d {
				idx := int(x)
				if idx < 0 || idx >= len(arr) {
					ff.note(j, ck, x)
					d[j] = 0
				} else {
					d[j] = float64(arr[idx])
				}
			}
		}
	}
	if ff.ck != nil && c.err == nil {
		c.err = fmt.Errorf("interp: %s: subscript %v out of range [0, %d)", ff.ck.msg, ff.v, ff.ck.ext)
	}
}

type compiler struct {
	env    *Env
	loop   *lang.Loop
	opts   CompileOpts
	prog   []instr
	consts []float64
	f64    [][]float64
	i32    [][]int32
	checks []check
	f64Of  map[string]int32
	i32Of  map[string]int32
	regOf  map[string]int32
}

func (c *compiler) emit(in instr) { c.prog = append(c.prog, in) }

func (c *compiler) constIdx(v float64) int32 {
	for i, x := range c.consts {
		if x == v {
			return int32(i)
		}
	}
	c.consts = append(c.consts, v)
	return int32(len(c.consts) - 1)
}

func (c *compiler) f64Idx(name string) (int32, error) {
	if c.f64Of == nil {
		c.f64Of = map[string]int32{}
	}
	if i, ok := c.f64Of[name]; ok {
		return i, nil
	}
	data, ok := c.env.Floats[name]
	if !ok {
		return 0, fmt.Errorf("interp: array %q unbound at compile time", name)
	}
	c.f64 = append(c.f64, data)
	c.f64Of[name] = int32(len(c.f64) - 1)
	return c.f64Of[name], nil
}

func (c *compiler) i32Idx(name string) (int32, error) {
	if c.i32Of == nil {
		c.i32Of = map[string]int32{}
	}
	if i, ok := c.i32Of[name]; ok {
		return i, nil
	}
	data, ok := c.env.Ints[name]
	if !ok {
		return 0, fmt.Errorf("interp: int array %q unbound at compile time", name)
	}
	c.i32 = append(c.i32, data)
	c.i32Of[name] = int32(len(c.i32) - 1)
	return c.i32Of[name], nil
}

// checkIdx interns a range-check site.
func (c *compiler) checkIdx(arr, ext int32, msg string) int32 {
	c.checks = append(c.checks, check{arr: arr, ext: ext, msg: msg})
	return int32(len(c.checks) - 1)
}

// unchecked reports whether the access is covered by the caller's proof.
func (c *compiler) unchecked(ix *lang.IndexExpr) bool {
	return c.opts.Unchecked != nil && c.opts.Unchecked(ix)
}

// index compiles the flattened element index of an array reference onto
// the stack. Unless the reference is proven in-bounds, every subscript is
// validated against its declared extent (opRange) before it participates
// in the flattening — a faulting subscript is clamped to 0 so evaluation
// can continue, with the fault recorded on the Code.
func (c *compiler) index(ix *lang.IndexExpr) error {
	decl := c.env.Prog.Array(ix.Array)
	if decl == nil {
		return fmt.Errorf("interp:%s: array %q not declared", ix.Pos, ix.Array)
	}
	if len(ix.Index) != len(decl.Dims) {
		return fmt.Errorf("interp:%s: array %q has %d dims, indexed with %d", ix.Pos, ix.Array, len(decl.Dims), len(ix.Index))
	}
	checked := !c.unchecked(ix)
	emitCheck := func(d int) error {
		if !checked {
			return nil
		}
		ext, err := c.env.extentVal(decl.Dims[d])
		if err != nil {
			return err
		}
		msg := fmt.Sprintf("%s: %s dim %d", ix.Pos, ix, d)
		c.emit(instr{op: opRange, a: c.checkIdx(-1, int32(ext), msg)})
		return nil
	}
	// idx = sub0; for each later dim: idx = idx*ext + sub.
	if err := c.expr(ix.Index[0]); err != nil {
		return err
	}
	if err := emitCheck(0); err != nil {
		return err
	}
	for d := 1; d < len(ix.Index); d++ {
		ext, err := c.env.extentVal(decl.Dims[d])
		if err != nil {
			return err
		}
		c.emit(instr{op: opConst, a: c.constIdx(float64(ext))})
		c.emit(instr{op: opMul})
		if err := c.expr(ix.Index[d]); err != nil {
			return err
		}
		if err := emitCheck(d); err != nil {
			return err
		}
		c.emit(instr{op: opAdd})
	}
	return nil
}

func (c *compiler) expr(e lang.Expr) error {
	switch x := e.(type) {
	case *lang.Num:
		c.emit(instr{op: opConst, a: c.constIdx(x.Val)})
	case *lang.Ident:
		if x.Name == c.loop.Var {
			c.emit(instr{op: opIter})
			return nil
		}
		if reg, ok := c.regOf[x.Name]; ok {
			c.emit(instr{op: opReg, a: reg})
			return nil
		}
		if v, ok := c.env.Params[x.Name]; ok {
			c.emit(instr{op: opConst, a: c.constIdx(float64(v))})
			return nil
		}
		return fmt.Errorf("interp:%s: unbound identifier %q", x.Pos, x.Name)
	case *lang.IndexExpr:
		if err := c.index(x); err != nil {
			return err
		}
		decl := c.env.Prog.Array(x.Array)
		checked := !c.unchecked(x)
		if decl.Int {
			i, err := c.i32Idx(x.Array)
			if err != nil {
				return err
			}
			if checked {
				msg := fmt.Sprintf("%s: %s", x.Pos, x)
				c.emit(instr{op: opLoadIC, a: c.checkIdx(i, int32(len(c.i32[i])), msg)})
			} else {
				c.emit(instr{op: opLoadI, a: i})
			}
		} else {
			i, err := c.f64Idx(x.Array)
			if err != nil {
				return err
			}
			if checked {
				msg := fmt.Sprintf("%s: %s", x.Pos, x)
				c.emit(instr{op: opLoad1C, a: c.checkIdx(i, int32(len(c.f64[i])), msg)})
			} else {
				c.emit(instr{op: opLoad1, a: i})
			}
		}
	case *lang.BinExpr:
		if err := c.expr(x.L); err != nil {
			return err
		}
		if err := c.expr(x.R); err != nil {
			return err
		}
		switch x.Op {
		case '+':
			c.emit(instr{op: opAdd})
		case '-':
			c.emit(instr{op: opSub})
		case '*':
			c.emit(instr{op: opMul})
		case '/':
			c.emit(instr{op: opDiv})
		default:
			return fmt.Errorf("interp:%s: bad operator %q", x.Pos, x.Op)
		}
	case *lang.UnExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		c.emit(instr{op: opNeg})
	case *lang.CallExpr:
		for _, a := range x.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		switch x.Fn {
		case "sqrt":
			c.emit(instr{op: opSqrt})
		case "abs":
			c.emit(instr{op: opAbs})
		case "min":
			c.emit(instr{op: opMin})
		case "max":
			c.emit(instr{op: opMax})
		default:
			return fmt.Errorf("interp:%s: unknown builtin %q", x.Pos, x.Fn)
		}
	default:
		return fmt.Errorf("interp: unknown expression node %T", e)
	}
	return nil
}
