package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"irred/internal/service"
)

// irreddBin is built once for the tests.
var irreddBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench")
	if err != nil {
		panic(err)
	}
	irreddBin = filepath.Join(dir, "irredd")
	out, err := exec.Command("go", "build", "-o", irreddBin, "irred/cmd/irredd").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building irredd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestCheckBites plants a wrong expected SHA on one op and adds one
// invalid spec: both must count as failures and fail the run, while the
// untouched ops still pass.
func TestCheckBites(t *testing.T) {
	w, err := buildServeShort(1, true)
	if err != nil {
		t.Fatal(err)
	}
	var planted *op
	for _, o := range w.ops {
		if o.kind == "raw" {
			planted = o
			break
		}
	}
	planted.want = strings.Repeat("0", 64)
	bad := service.JobSpec{Kernel: "mvm", Dataset: "S", P: 0, K: 1}
	body, _ := json.Marshal(bad)
	invalid := &op{name: "invalid", kind: "named", spec: bad, body: body}
	w.ops = append(w.ops, invalid)
	w.streams[0] = append([]*op{planted, invalid}, w.streams[0]...)

	d, err := startDaemon(irreddBin, false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	attempted, failed := w.warmup(d)
	if failed != 2 {
		t.Fatalf("warm-up: %d of %d checks failed, want exactly the planted op and the invalid spec", failed, attempted)
	}
	samples, _ := w.window(d, 500*time.Millisecond, nil)
	for _, s := range samples {
		wantOK := s.op != planted && s.op != invalid
		if s.ok != wantOK {
			t.Errorf("%s: ok = %v, want %v", s.op.name, s.ok, wantOK)
		}
	}

	res, err := untracedServed(config{dur: 300 * time.Millisecond, irredd: irreddBin}, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 2 {
		t.Fatalf("run with a planted oracle and an invalid spec: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// benchmarkFile is the part of BENCHMARK.json the test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestEveryMetricPrints runs every workload at a tiny size, untraced and
// traced, and checks that the last line names every metric of
// BENCHMARK.json with its unit and reports a correct run.
func TestEveryMetricPrints(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, perfbench %d", len(bf.Workloads), len(workloads))
	}
	for i, wl := range bf.Workloads {
		if wl.Name != workloads[i] {
			t.Fatalf("workload %d: BENCHMARK.json %q, perfbench %q", i, wl.Name, workloads[i])
		}
	}
	for _, wl := range workloads {
		for trace, want := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{bf.EndToEnd, bf.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-workload", wl, "-seed", "3", "-seconds", "0.6", "-trace", []string{"0", "1"}[trace],
				"-irredd", irreddBin, "-root", "..", "-tiny"}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s%s", wl, trace, code, stdout.String(), stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%d: last line: %v", wl, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d", wl, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", wl, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
