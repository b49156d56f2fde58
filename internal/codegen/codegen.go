// Package codegen lowers analyzed, fissioned IRL loops to the phase
// runtime. Compile drives the whole pipeline of the paper's Section 4:
// parse -> extract sections -> build reference groups -> loop fission ->
// per-loop plans. A Plan can be wired onto the rts engines for execution
// and rendered as a Threaded-C-style listing (the EARTH-C compiler's
// target language).
package codegen

import (
	"errors"
	"fmt"
	"sort"

	"irred/internal/algebra"
	"irred/internal/analysis"
	"irred/internal/dataflow"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/lang"
	"irred/internal/rts"
	"irred/internal/transform"
)

// PlanKind distinguishes irregular (phase-executed) loops from regular
// loops that need no runtime preprocessing.
type PlanKind int

const (
	// Irregular plans run under the paper's execution strategy.
	Irregular PlanKind = iota
	// Regular plans (prologues, residual element loops) are embarrassingly
	// parallel and run directly.
	Regular
)

// Plan is the executable form of one post-fission loop.
type Plan struct {
	Kind PlanKind
	Loop *lang.Loop
	Info *analysis.LoopInfo // analysis of this loop (single reference group)
	Prog *lang.Program      // the fissioned program (declarations)
	Name string             // stable name for listings: loop0, loop0_g1, ...

	// Facts is the bounds proof computed by the most recent BuildLoop (or
	// ComputeFacts) against a concrete environment: which subscript
	// obligations were discharged, whether the compiled body runs without
	// range checks, and whether the native engine may skip per-write
	// target validation. Nil until a proof has been computed.
	Facts *dataflow.Facts

	// License is the schedule license of this post-fission loop: the
	// parent (pre-fission) loop's license met with the fissioned loop's
	// own, so fission can only narrow grants, never widen them. BuildLoop
	// refuses plans whose license does not grant rotation; BuildTreeFold
	// additionally requires the TreeFoldLegal grant.
	License *dataflow.License

	// Combine is the fold operator of the plan's reference group, with
	// the identity the legality pass proved (when it proved one). The
	// zero value is float addition.
	Combine algebra.Op

	// codes holds the per-processor bytecode evaluators of the most recent
	// BuildLoop, so runtime faults recorded by checked execution can be
	// surfaced after a run (RuntimeErr). Each BuildLoop makes a new slice;
	// a Runner keeps its own.
	codes []*interp.Code
}

// Unit is a fully compiled IRL program.
type Unit struct {
	Source    *lang.Program
	Analysis  *analysis.Result
	Fissioned *lang.Program
	Results   []*transform.FissionResult
	Plans     []*Plan

	// Reuse is the inter-loop schedule-reuse license proven over the
	// plans in plan order: grant indices are plan indices, so a Runner
	// can map Reuse.ReuseOf(i) straight onto Plans[i]. Proven with
	// unbound parameters — the grants hold for every environment.
	Reuse *dataflow.ReuseLicense
}

// Compile runs the whole pipeline on IRL source text.
func Compile(src string) (*Unit, error) { return compile(src, false) }

// CompileOptimized additionally runs common-subexpression elimination on
// every loop before analysis.
func CompileOptimized(src string) (*Unit, error) { return compile(src, true) }

func compile(src string, optimize bool) (*Unit, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	if optimize {
		prog, _ = transform.CSEProgram(prog)
	}
	res, err := analysis.Analyze(prog)
	if err != nil {
		return nil, err
	}
	fissioned, frs, err := transform.Fission(res)
	if err != nil {
		return nil, err
	}
	u := &Unit{Source: prog, Analysis: res, Fissioned: fissioned, Results: frs}

	// Schedule legality: license each source loop symbolically, then
	// re-license every fissioned loop and meet it with its parent's
	// license — a fissioned group carries its parent's verdict and can
	// only lose grants, never gain them.
	parentLics := dataflow.LegalizeProgram(prog, dataflow.Options{})

	for li, fr := range frs {
		parent := parentLics[li]
		if fr.Prologue != nil {
			pi, err := reanalyze(fissioned, fr.Prologue)
			if err != nil {
				return nil, err
			}
			u.Plans = append(u.Plans, &Plan{
				Kind: Regular, Loop: fr.Prologue, Info: pi, Prog: fissioned,
				Name:    fmt.Sprintf("loop%d_pro", li),
				License: dataflow.LegalizeLoop(fissioned, fr.Prologue, dataflow.Options{}),
			})
		}
		for gi, fl := range fr.Loops {
			info, err := reanalyze(fissioned, fl.Loop)
			if err != nil {
				return nil, err
			}
			if len(info.Groups) > 1 {
				return nil, fmt.Errorf("codegen: loop %d still has %d reference groups after fission", li, len(info.Groups))
			}
			kind := Regular
			if len(info.Reductions) > 0 {
				kind = Irregular
			}
			name := fmt.Sprintf("loop%d", li)
			if len(fr.Loops) > 1 {
				name = fmt.Sprintf("loop%d_g%d", li, gi)
			}
			lic := dataflow.Meet(parent, dataflow.LegalizeLoop(fissioned, fl.Loop, dataflow.Options{}))
			u.Plans = append(u.Plans, &Plan{
				Kind: kind, Loop: fl.Loop, Info: info, Prog: fissioned, Name: name,
				License: lic,
				Combine: planCombine(info, lic),
			})
		}
	}

	// Schedule reuse: prove which plans must receive identical inspector
	// schedules. The prover runs over the *plan* loop sequence (prologues
	// included — their writes kill reuse classes), so grant indices line
	// up with Plans.
	planLoops := make([]*lang.Loop, len(u.Plans))
	for i, p := range u.Plans {
		planLoops[i] = p.Loop
	}
	u.Reuse = dataflow.ProveReuse(&lang.Program{
		Params: fissioned.Params,
		Arrays: fissioned.Arrays,
		Loops:  planLoops,
	}, dataflow.Options{})
	return u, nil
}

// planCombine resolves the fold operator of a plan's reference group,
// preferring the license's op record because it carries the proven
// identity for compound (Custom) combines. Analysis guarantees one
// combine per group, so the first reduction is representative.
func planCombine(info *analysis.LoopInfo, lic *dataflow.License) algebra.Op {
	if len(info.Reductions) == 0 {
		return algebra.Op{}
	}
	op := info.Reductions[0].Op()
	if lic != nil {
		for _, ol := range lic.Ops {
			if ol.Array == info.Reductions[0].Array {
				return ol.Op
			}
		}
	}
	return op
}

func reanalyze(prog *lang.Program, l *lang.Loop) (*analysis.LoopInfo, error) {
	tmp := &lang.Program{Params: prog.Params, Arrays: prog.Arrays, Loops: []*lang.Loop{l}}
	res, err := analysis.Analyze(tmp)
	if err != nil {
		return nil, err
	}
	return res.Loops[0], nil
}

// ReductionArrays lists the distinct reduction arrays of the plan, sorted.
func (p *Plan) ReductionArrays() []string {
	set := map[string]bool{}
	for _, r := range p.Info.Reductions {
		set[r.Array] = true
	}
	var out []string
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// BuildOpts controls proof-carrying optimization during BuildLoop.
type BuildOpts struct {
	// ForceChecked keeps every range check and the native engine's
	// per-write target validation even when the bounds proof would allow
	// eliding them — for differential testing and benchmarking the checks
	// themselves. The proof is still computed and recorded.
	ForceChecked bool
}

// BuildLoop wires an irregular plan onto the runtime for a machine of
// `procs` processors with unrolling factor k: it extracts the indirection
// columns from the environment, estimates the kernel cost from the loop
// body, and returns the rts loop plus the contribution hook that evaluates
// the body a block of iterations at a time.
//
// BuildLoop is proof-carrying: it runs the dataflow interval analysis
// seeded with the environment's concrete parameters and a one-pass min/max
// scan of every bound indirection array, records the resulting
// dataflow.Facts artifact on the plan and the loop, compiles the body with
// range checks elided exactly for the proven references (unproven accesses
// stay checked and fault gracefully — see RuntimeErr), and marks the loop
// so the native engine skips per-write target validation when the
// indirection contents are proven in range.
//
// Multiple reduction arrays in one group are packed as components of the
// rotated array; component c of element e holds array c's element e.
func (p *Plan) BuildLoop(env *interp.Env, procs, k int, dist inspector.Dist) (*rts.Loop, rts.BatchContribFunc, error) {
	return p.BuildLoopOpts(env, procs, k, dist, BuildOpts{})
}

// BuildLoopOpts is BuildLoop with explicit optimization control.
func (p *Plan) BuildLoopOpts(env *interp.Env, procs, k int, dist inspector.Dist, bopts BuildOpts) (*rts.Loop, rts.BatchContribFunc, error) {
	if p.Kind != Irregular {
		return nil, nil, fmt.Errorf("codegen: %s is a regular loop", p.Name)
	}
	if p.License != nil && !p.License.Rotation {
		return nil, nil, fmt.Errorf("codegen: %s: schedule license is %s — the rotation schedule is not licensed for this loop (run irredc -legality-report for the ledger)",
			p.Name, p.License.Level())
	}
	lo, hi, err := loopBounds(env, p.Loop)
	if err != nil {
		return nil, nil, err
	}
	if lo != 0 {
		return nil, nil, fmt.Errorf("codegen: %s: loops must start at 0 (got %d)", p.Name, lo)
	}
	arrays := p.ReductionArrays()
	nElems, err := env.Size(arrays[0])
	if err != nil {
		return nil, nil, err
	}
	for _, a := range arrays[1:] {
		n, err := env.Size(a)
		if err != nil {
			return nil, nil, err
		}
		if n != nElems {
			return nil, nil, fmt.Errorf("codegen: %s: reduction arrays %s and %s differ in extent", p.Name, arrays[0], a)
		}
	}

	reds := p.Info.Reductions
	ind := make([][]int32, len(reds))
	for r, red := range reds {
		col, err := indColumn(env, red.Ind, hi)
		if err != nil {
			return nil, nil, err
		}
		ind[r] = col
	}

	// Prove what we can about the loop's subscripts from the concrete
	// parameters and a one-pass scan of the bound indirection arrays, then
	// check the runtime side of the rotated-array claim against the
	// extracted columns.
	facts := p.ComputeFacts(env)
	facts.NumElems = nElems
	facts.IndProven = dataflow.ProveIndirection(nElems, ind...)
	p.Facts = facts

	loop := &rts.Loop{
		Cfg: inspector.Config{
			P: procs, K: k,
			NumIters: hi,
			NumElems: nElems,
			Dist:     dist,
		},
		Mode:    rts.Reduce,
		Ind:     ind,
		Cost:    p.EstimateCost(len(arrays)),
		Combine: p.Combine,
	}
	if !bopts.ForceChecked {
		loop.Proof = facts
	}

	// Each reference's contribution lands in its slot of an iteration's
	// NumRef*comp outputs: reference r, component of its array. The
	// compiled body writes every contribution straight into its slot,
	// with a subtracting reference's sign folded into its expression.
	comp := len(arrays)
	exprs := make([]lang.Expr, len(reds))
	slots := make([]int, len(reds))
	for r, red := range reds {
		exprs[r] = red.RHS
		if red.Negate {
			exprs[r] = &lang.UnExpr{X: red.RHS, Pos: red.RHS.Position()}
		}
		slots[r] = r*comp + sort.SearchStrings(arrays, red.Array)
	}
	// Compile the body to bytecode once; each simulated processor gets an
	// independent evaluator (private vector stack and registers). Range
	// checks are elided per reference exactly where the proof covers the
	// access.
	width := len(reds) * comp
	copts := interp.CompileOpts{Stride: width, Slots: slots}
	if !bopts.ForceChecked {
		copts.Unchecked = facts.RefProven
	}
	code, err := env.CompileIterOpts(p.Loop, exprs, copts)
	if err != nil {
		return nil, nil, err
	}
	codes := make([]*interp.Code, procs)
	for q := range codes {
		codes[q] = code
		if q > 0 {
			codes[q] = code.Clone()
		}
	}
	p.codes = codes
	// Unwritten slots must hold the combine's identity, not zero: with
	// packed components, reference r contributes nothing to the other
	// components, and "nothing" is the identity of the fold.
	ident, _ := p.Combine.Identity()
	contribs := func(proc int, iters []int32, out []float64) {
		if comp > 1 {
			out = out[:len(iters)*width]
			for j := range out {
				out[j] = ident
			}
		}
		codes[proc].EvalBatch(iters, out)
	}
	return loop, contribs, nil
}

// BuildTreeFold wires an irregular plan onto the privatized tree-fold
// executor. The plan's schedule license must grant TreeFoldLegal —
// rts.NewTreeFold re-checks the grant and the ledger, so there is no way
// to reach the reordering execution path without a machine-checked proof
// that the combine tolerates it.
func (p *Plan) BuildTreeFold(env *interp.Env, workers int) (*rts.TreeFold, error) {
	loop, contribs, err := p.BuildLoopOpts(env, workers, 1, inspector.Block, BuildOpts{})
	if err != nil {
		return nil, err
	}
	tf, err := rts.NewTreeFold(loop, p.License)
	if err != nil {
		return nil, err
	}
	tf.BatchContribs = contribs
	return tf, nil
}

// ComputeFacts runs the dataflow bounds analysis for this plan's loop
// against an environment: concrete parameter values plus min/max scans of
// every bound indirection array seed the interval domain. The result does
// not carry the rotated-array claim (IndProven) — BuildLoop fills that in
// from the extracted columns.
func (p *Plan) ComputeFacts(env *interp.Env) *dataflow.Facts {
	opts, scanned := dataflow.EnvOptions(env.Params, env.Ints)
	lf := dataflow.AnalyzeLoop(p.Prog, p.Loop, opts)
	return lf.Proof(scanned)
}

// RuntimeErr reports the first range fault recorded by any processor's
// checked bytecode during runs since the last BuildLoop, or nil. Proven
// (unchecked) accesses never fault; unproven accesses clamp to a safe
// index, finish the run, and surface here.
func (p *Plan) RuntimeErr() error { return codesErr(p.codes) }

// codesErr joins the range faults recorded by a set of evaluators.
func codesErr(codes []*interp.Code) error {
	var errs []error
	for _, c := range codes {
		if err := c.Err(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Scatter unpacks the runtime's rotated array back into the environment's
// reduction arrays after a run.
func (p *Plan) Scatter(env *interp.Env, x []float64) error {
	arrays := p.ReductionArrays()
	comp := len(arrays)
	for c, a := range arrays {
		data, ok := env.Floats[a]
		if !ok {
			return fmt.Errorf("codegen: array %q unbound", a)
		}
		for e := range data {
			data[e] = x[e*comp+c]
		}
	}
	return nil
}

// EstimateCost derives a simulator cost description from the loop body.
func (p *Plan) EstimateCost(comp int) rts.KernelCost {
	flops := 0
	for _, st := range p.Loop.Body {
		lang.Walk(st.RHS, func(e lang.Expr) {
			switch e.(type) {
			case *lang.BinExpr, *lang.UnExpr:
				flops++
			case *lang.CallExpr:
				flops += 8 // sqrt-class builtin
			}
		})
	}
	return rts.KernelCost{
		Flops:      flops,
		IntOps:     2 * len(p.Info.Reductions),
		IterArrays: len(p.Info.IterReads),
		NodeArrays: len(p.Info.Reads),
		Comp:       comp,
		BcastComp:  len(p.Info.Reads), // replicated reads refreshed per step
	}
}

func loopBounds(env *interp.Env, l *lang.Loop) (int, int, error) {
	loE, err := evalConst(env, l.Lo)
	if err != nil {
		return 0, 0, err
	}
	hiE, err := evalConst(env, l.Hi)
	if err != nil {
		return 0, 0, err
	}
	return loE, hiE, nil
}

func evalConst(env *interp.Env, e lang.Expr) (int, error) {
	switch x := e.(type) {
	case *lang.Num:
		return int(x.Val), nil
	case *lang.Ident:
		if v, ok := env.Params[x.Name]; ok {
			return v, nil
		}
		return 0, fmt.Errorf("codegen: unbound parameter %q", x.Name)
	default:
		return 0, fmt.Errorf("codegen: loop bound %s is not constant", e)
	}
}

// indColumn extracts the flattened indirection column ind[i] or
// ind[i, col] for i in [0, n).
func indColumn(env *interp.Env, ref analysis.IndRef, n int) ([]int32, error) {
	data, ok := env.Ints[ref.Array]
	if !ok {
		return nil, fmt.Errorf("codegen: indirection array %q unbound", ref.Array)
	}
	decl := env.Prog.Array(ref.Array)
	if ref.Col < 0 {
		if len(data) < n {
			return nil, fmt.Errorf("codegen: indirection %q shorter than loop", ref.Array)
		}
		return data[:n], nil
	}
	width := 0
	if len(decl.Dims) == 2 {
		w, err := envExtent(env, decl.Dims[1])
		if err != nil {
			return nil, err
		}
		width = w
	}
	if width == 0 || ref.Col >= width {
		return nil, fmt.Errorf("codegen: column %d out of range for %q", ref.Col, ref.Array)
	}
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = data[i*width+ref.Col]
	}
	return out, nil
}

func envExtent(env *interp.Env, x lang.Extent) (int, error) {
	if x.Param == "" {
		return x.Lit, nil
	}
	if v, ok := env.Params[x.Param]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("codegen: parameter %q unbound", x.Param)
}
