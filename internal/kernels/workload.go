package kernels

import (
	"fmt"
	"strings"

	"irred/internal/inspector"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// Workload is one of the paper's named kernels as a buildable unit: its
// dataset classes, its IRL source, and a deterministic builder from
// (class, seed) to an immutable Instance. Every site that turns a kernel
// name into data (the service, the sweep harness, irredrun, irredload)
// goes through the registry instead of switching on the name.
type Workload struct {
	Name    string
	Classes []string // canonical spelling; lookups ignore case
	IRL     string
	build   func(class string, seed int64) *Instance
}

var registry = []*Workload{
	{Name: "mvm", Classes: []string{"S", "W", "A", "B"}, IRL: MVMIRL, build: buildMVM},
	{Name: "euler", Classes: []string{"2k", "10k"}, IRL: EulerIRL, build: buildEuler},
	{Name: "moldyn", Classes: []string{"2k", "10k"}, IRL: MoldynIRL, build: buildMoldyn},
}

// Workloads lists the registered workloads in canonical order.
func Workloads() []*Workload { return append([]*Workload(nil), registry...) }

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, error) {
	names := make([]string, len(registry))
	for i, w := range registry {
		if w.Name == name {
			return w, nil
		}
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown kernel %q (want %s)", name, strings.Join(names, " | "))
}

// Class returns the canonical spelling of one of the workload's classes.
func (w *Workload) Class(class string) (string, error) {
	for _, c := range w.Classes {
		if strings.EqualFold(c, class) {
			return c, nil
		}
	}
	return "", fmt.Errorf("%s datasets: %s (got %q)", w.Name, strings.Join(w.Classes, ", "), class)
}

// CanonicalClass validates (name, class) against the registry and returns
// the class's canonical spelling.
func CanonicalClass(name, class string) (string, error) {
	w, err := Lookup(name)
	if err != nil {
		return "", err
	}
	return w.Class(class)
}

// Build generates a fresh, uncached instance of a workload's dataset;
// Input serves the same instances through the process-wide cache.
func Build(name, class string, seed int64) (*Instance, error) {
	w, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	c, err := w.Class(class)
	if err != nil {
		return nil, err
	}
	in := w.build(c, seed)
	in.Workload, in.Class, in.Seed = w, c, seed
	return in, nil
}

// Instance is one built dataset of a workload. It is immutable: the
// engine constructor copies every array a run evolves, so one instance
// backs any number of concurrent jobs.
type Instance struct {
	Workload *Workload
	Class    string
	Seed     int64
	Desc     string // e.g. "mvm class S (n=1400, nnz=78148)"
	Bytes    int64  // size of the generated arrays

	kernel any // *MVM | *Euler | *Moldyn
	loop   func(p, k int, dist inspector.Dist) *rts.Loop
	native func(l *rts.Loop, scheds []*inspector.Schedule) (*rts.Native, []float64, error)
	oracle func(steps int) []float64
}

// Kernel returns the underlying *MVM, *Euler or *Moldyn, for callers that
// bind its arrays elsewhere (the interpreter). They must not modify it.
func (in *Instance) Kernel() any { return in.kernel }

// Loop describes the kernel's irregular sweep to the runtime.
func (in *Instance) Loop(p, k int, dist inspector.Dist) *rts.Loop { return in.loop(p, k, dist) }

// Native wires the kernel onto the native engine over l, which must come
// from in.Loop. A nil scheds runs the LightInspector. The returned slice
// is the result a job reports: the x vector for mvm, the node state for
// euler, positions for moldyn.
func (in *Instance) Native(l *rts.Loop, scheds []*inspector.Schedule) (*rts.Native, []float64, error) {
	return in.native(l, scheds)
}

// Sequential runs the reference kernel for steps timesteps and returns
// the vector Native's result slice must reproduce.
func (in *Instance) Sequential(steps int) []float64 { return in.oracle(steps) }

// sizeOf sums the bytes of int32 and float64 arrays.
func sizeOf(i32 [][]int32, f64 [][]float64) int64 {
	var n int64
	for _, a := range i32 {
		n += 4 * int64(len(a))
	}
	for _, a := range f64 {
		n += 8 * int64(len(a))
	}
	return n
}

func buildMVM(class string, seed int64) *Instance {
	c := map[string]sparse.Class{"S": sparse.ClassS, "W": sparse.ClassW, "A": sparse.ClassA, "B": sparse.ClassB}[class]
	mv := NewMVM(sparse.Generate(c, uint64(seed)))
	return &Instance{
		Desc:   fmt.Sprintf("mvm class %s (n=%d, nnz=%d)", c.Name, c.N, c.NNZ),
		Bytes:  sizeOf([][]int32{mv.A.RowPtr, mv.A.Col, mv.Rows}, [][]float64{mv.A.Val}),
		kernel: mv,
		loop:   mv.Loop,
		native: mv.nativeOn,
		oracle: mv.RunSequential,
	}
}

func buildEuler(class string, seed int64) *Instance {
	nodes, edges := mesh.Paper2K()
	if class == "10k" {
		nodes, edges = mesh.Paper10K()
	}
	eu := NewEuler(mesh.Generate(nodes, edges, seed), seed)
	m := eu.Mesh
	return &Instance{
		Desc:   fmt.Sprintf("euler %s (%d nodes, %d edges)", class, nodes, edges),
		Bytes:  sizeOf([][]int32{m.I1, m.I2}, [][]float64{m.Coord, eu.W, eu.Q}),
		kernel: eu,
		loop:   eu.Loop,
		native: eu.nativeOn,
		oracle: eu.RunSequential,
	}
}

func buildMoldyn(class string, seed int64) *Instance {
	sys := moldyn.Paper2K(seed)
	if class == "10k" {
		sys = moldyn.Paper10K(seed)
	}
	md := NewMoldyn(sys)
	return &Instance{
		Desc:   fmt.Sprintf("moldyn %s (%d molecules, %d interactions)", class, sys.N, sys.NumInteractions()),
		Bytes:  sizeOf([][]int32{sys.I1, sys.I2}, [][]float64{sys.Pos, sys.Vel}),
		kernel: md,
		loop:   md.Loop,
		native: func(l *rts.Loop, scheds []*inspector.Schedule) (*rts.Native, []float64, error) {
			n, pos, _, err := md.nativeOn(l, scheds)
			return n, pos, err
		},
		oracle: func(steps int) []float64 {
			pos, _ := md.RunSequential(steps)
			return pos
		},
	}
}
