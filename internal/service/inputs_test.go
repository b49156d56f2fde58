package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/obs"
)

// instanceHash is a content hash over every array of a built instance, to
// show that jobs served from it never write into it.
func instanceHash(t *testing.T, in *kernels.Instance) string {
	t.Helper()
	var buf []byte
	ints := func(as ...[]int32) {
		for _, a := range as {
			for _, v := range a {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		}
	}
	floats := func(as ...[]float64) {
		for _, a := range as {
			for _, v := range a {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	switch k := in.Kernel().(type) {
	case *kernels.MVM:
		ints(k.A.RowPtr, k.A.Col, k.Rows)
		floats(k.A.Val)
	case *kernels.Euler:
		ints(k.Mesh.I1, k.Mesh.I2)
		floats(k.Mesh.Coord, k.W, k.Q, []float64{k.Dt})
	case *kernels.Moldyn:
		ints(k.Sys.I1, k.Sys.I2)
		floats(k.Sys.Pos, k.Sys.Vel, []float64{k.Dt, k.Sys.Box})
	default:
		t.Fatalf("unexpected kernel %T", k)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// freshSHA runs spec on a fresh, uncached instance outside the service.
func freshSHA(t *testing.T, spec JobSpec) string {
	t.Helper()
	in, err := kernels.Build(spec.Kernel, spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := spec.dist()
	if err != nil {
		t.Fatal(err)
	}
	n, out, err := in.Native(in.Loop(spec.P, spec.K, dist), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Run(spec.steps()); err != nil {
		t.Fatal(err)
	}
	return HashResult(out)
}

var namedDatasets = map[string]string{"mvm": "S", "euler": "2k", "moldyn": "2k"}

// TestCachedInputsAreImmutable interleaves named jobs over every kernel,
// 2 seeds, k in {1,2} and both distributions, all served from shared
// cached instances: every result must equal a run on a fresh, uncached
// instance, and no instance's arrays may change.
func TestCachedInputsAreImmutable(t *testing.T) {
	s := newTestService(t, Options{Workers: 2, QueueLen: 128})
	var specs []JobSpec
	for _, seed := range []int64{11, 12} {
		for _, k := range []int{1, 2} {
			for _, dist := range []string{"block", "cyclic"} {
				for _, w := range kernels.Workloads() {
					specs = append(specs, JobSpec{
						Kernel: w.Name, Dataset: namedDatasets[w.Name], Seed: seed,
						P: 2, K: k, Dist: dist, Steps: 2,
					})
				}
			}
		}
	}
	type dataset struct {
		kernel string
		seed   int64
	}
	before := map[dataset]string{}
	for _, sp := range specs {
		in, _, err := kernels.Input(sp.Kernel, sp.Dataset, sp.Seed)
		if err != nil {
			t.Fatal(err)
		}
		before[dataset{sp.Kernel, sp.Seed}] = instanceHash(t, in)
	}
	// Two rounds: the second runs every job again on warm instances.
	jobs := make([]*Job, 0, 2*len(specs))
	for round := 0; round < 2; round++ {
		for _, sp := range specs {
			j, err := s.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	for i, j := range jobs {
		st := waitJob(t, j)
		if st.State != StateDone {
			t.Fatalf("job %d (%+v): %s %s", i, j.Spec, st.State, st.Error)
		}
		if want := freshSHA(t, j.Spec); st.ResultSHA256 != want {
			t.Fatalf("job %d (%+v): sha %s, fresh instance %s", i, j.Spec, st.ResultSHA256, want)
		}
	}
	for d, h := range before {
		in, _, err := kernels.Input(d.kernel, namedDatasets[d.kernel], d.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := instanceHash(t, in); got != h {
			t.Fatalf("%s seed %d: instance arrays changed while serving jobs", d.kernel, d.seed)
		}
	}
}

// TestConcurrentJobsShareOneInstance runs jobs on one cached instance at
// the same time; under -race this checks that no run writes shared input.
func TestConcurrentJobsShareOneInstance(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	for _, w := range kernels.Workloads() {
		spec := JobSpec{Kernel: w.Name, Dataset: namedDatasets[w.Name], Seed: 21, P: 2, K: 2, Steps: 3}
		in, _, err := kernels.Input(spec.Kernel, spec.Dataset, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		h := instanceHash(t, in)
		var wg sync.WaitGroup
		sts := make([]JobStatus, 2)
		for i := range sts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				j, err := s.Submit(spec)
				if err != nil {
					t.Error(err)
					return
				}
				sts[i] = waitJob(t, j)
			}(i)
		}
		wg.Wait()
		want := freshSHA(t, spec)
		for i, st := range sts {
			if st.State != StateDone || st.ResultSHA256 != want {
				t.Fatalf("%s job %d: %s %s, sha %s want %s", w.Name, i, st.State, st.Error, st.ResultSHA256, want)
			}
		}
		if instanceHash(t, in) != h {
			t.Fatalf("%s: instance arrays changed under concurrent jobs", w.Name)
		}
	}
}

var tracedSeeds atomic.Int64

// TestInputMaterializationIsTraced: the first job on a dataset records an
// input/build span, later ones an input/hit event, and /metrics counts
// both; the job's schedule key is inspector.ScheduleKey over its loop.
func TestInputMaterializationIsTraced(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	// A seed no other test or earlier -count run used: the input cache is
	// process-wide, and the first job must build.
	spec := JobSpec{Kernel: "euler", Dataset: "2k", Seed: 900000 + tracedSeeds.Add(1), P: 2, K: 1, Dist: "block", Steps: 1}
	before := s.Metrics().Inputs
	for i := 0; i < 3; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job %d: %s %s", i, st.State, st.Error)
		}
	}
	spans, _ := s.Trace().Snapshot()
	count := map[string]int64{}
	for _, a := range obs.Aggregate(spans, false) {
		count[a.Name] = a.Count
	}
	if count["input/build"] != 1 || count["input/hit"] != 2 {
		t.Fatalf("input/build %d, input/hit %d; want 1 and 2", count["input/build"], count["input/hit"])
	}
	after := s.Metrics().Inputs
	if after.Misses-before.Misses < 1 || after.Hits-before.Hits < 2 || after.Entries < 1 || after.Bytes <= 0 {
		t.Fatalf("inputs metrics before %+v after %+v", before, after)
	}
	in, _, err := kernels.Input(spec.Kernel, spec.Dataset, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	l := in.Loop(spec.P, spec.K, inspector.Block)
	j, _ := s.Submit(spec)
	if st := waitJob(t, j); st.ScheduleKey != inspector.ScheduleKey(l.Cfg, l.Ind...) {
		t.Fatalf("job key %s is not the inspector's key", st.ScheduleKey)
	}
}
