package inspector

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"irred/internal/quickseed"
)

func TestScheduleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cfg := Config{P: 4, K: 2, NumIters: 500, NumElems: 97, Dist: Cyclic}
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	for p := 0; p < cfg.P; p++ {
		s, err := Light(cfg, p, ind...)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := s.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadSchedule(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cfg != s.Cfg || got.Proc != s.Proc || got.BufLen != s.BufLen || got.NumRef != s.NumRef {
			t.Fatalf("header changed: %+v vs %+v", got.Cfg, s.Cfg)
		}
		for ph := range s.Phases {
			a, b := &s.Phases[ph], &got.Phases[ph]
			if len(a.Iters) != len(b.Iters) || len(a.Copies) != len(b.Copies) {
				t.Fatalf("phase %d shape changed", ph)
			}
			for j := range a.Iters {
				if a.Iters[j] != b.Iters[j] {
					t.Fatalf("phase %d iter %d changed", ph, j)
				}
				for r := range a.Ind {
					if a.Ind[r][j] != b.Ind[r][j] {
						t.Fatalf("phase %d ind[%d][%d] changed", ph, r, j)
					}
				}
			}
			for j := range a.Copies {
				if a.Copies[j] != b.Copies[j] {
					t.Fatalf("phase %d copy %d changed", ph, j)
				}
			}
		}
		// The deserialized schedule passes the full invariant check
		// against the original indirection arrays.
		if err := got.Check(ind...); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScheduleRoundTripAfterIncrementalUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	cfg := Config{P: 2, K: 2, NumIters: 200, NumElems: 40, Dist: Block}
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	s, err := Light(cfg, 0, ind...)
	if err != nil {
		t.Fatal(err)
	}
	changed := mutateInd(rng, ind, cfg.NumElems, 20)
	if err := s.Update(changed, ind...); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Check(ind...); err != nil {
		t.Fatal(err)
	}
	// And the reloaded schedule accepts further incremental updates.
	changed2 := mutateInd(rng, ind, cfg.NumElems, 10)
	if err := got.Update(changed2, ind...); err != nil {
		t.Fatal(err)
	}
	if err := got.Check(ind...); err != nil {
		t.Fatal(err)
	}
}

func TestReadScheduleRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE\x01"),
		"truncated": []byte("IRSC\x01\x02"),
		"bad ver":   []byte("IRSC\x09"),
	}
	for name, data := range cases {
		if _, err := ReadSchedule(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadScheduleRejectsTamperedBody(t *testing.T) {
	cfg := Config{P: 2, K: 1, NumIters: 50, NumElems: 16, Dist: Block}
	rng := rand.New(rand.NewSource(53))
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	s, err := Light(cfg, 0, ind...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Flip bytes in the body; either decoding fails or the invariant check
	// catches it. (Some flips may decode to an equivalent valid schedule of
	// different content — the Check(ind) in production call sites catches
	// those; here we only require no panic and mostly-detected corruption.)
	data := buf.Bytes()
	detected := 0
	for off := 6; off < len(data); off += 7 {
		tampered := append([]byte(nil), data...)
		tampered[off] ^= 0x55
		if _, err := ReadSchedule(bytes.NewReader(tampered)); err != nil {
			detected++
		}
	}
	if detected == 0 {
		t.Fatal("no tampering detected at all")
	}
}

// Property: round trip is lossless for arbitrary shapes.
func TestScheduleSerializationProperty(t *testing.T) {
	prop := func(seed int64, pRaw, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{P: 1 + int(pRaw)%5, K: 1 + int(kRaw)%3, NumIters: 120, NumElems: 31, Dist: Cyclic}
		ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
		s, err := Light(cfg, 0, ind...)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadSchedule(&buf)
		if err != nil {
			return false
		}
		return got.Check(ind...) == nil && got.NumIters() == s.NumIters()
	}
	if err := quick.Check(prop, quickseed.Config(t, 30)); err != nil {
		t.Fatal(err)
	}
}

// schedulesEquivalent compares every serialized field of two schedules,
// treating nil and empty slices as equal (Light leaves empty Copies nil,
// ReadSchedule materialises empty non-nil slices).
func schedulesEquivalent(a, b *Schedule) string {
	if a.Cfg != b.Cfg {
		return fmt.Sprintf("Cfg: %+v vs %+v", a.Cfg, b.Cfg)
	}
	if a.Proc != b.Proc || a.NumRef != b.NumRef || a.BufLen != b.BufLen {
		return fmt.Sprintf("header: (%d,%d,%d) vs (%d,%d,%d)",
			a.Proc, a.NumRef, a.BufLen, b.Proc, b.NumRef, b.BufLen)
	}
	if len(a.Phases) != len(b.Phases) {
		return fmt.Sprintf("phase count: %d vs %d", len(a.Phases), len(b.Phases))
	}
	for ph := range a.Phases {
		x, y := &a.Phases[ph], &b.Phases[ph]
		if len(x.Iters) != len(y.Iters) {
			return fmt.Sprintf("phase %d: %d vs %d iters", ph, len(x.Iters), len(y.Iters))
		}
		for j := range x.Iters {
			if x.Iters[j] != y.Iters[j] {
				return fmt.Sprintf("phase %d iter %d: %d vs %d", ph, j, x.Iters[j], y.Iters[j])
			}
		}
		if len(x.Ind) != len(y.Ind) {
			return fmt.Sprintf("phase %d: %d vs %d refs", ph, len(x.Ind), len(y.Ind))
		}
		for r := range x.Ind {
			if len(x.Ind[r]) != len(y.Ind[r]) {
				return fmt.Sprintf("phase %d ref %d length", ph, r)
			}
			for j := range x.Ind[r] {
				if x.Ind[r][j] != y.Ind[r][j] {
					return fmt.Sprintf("phase %d ind[%d][%d]: %d vs %d", ph, r, j, x.Ind[r][j], y.Ind[r][j])
				}
			}
		}
		if len(x.Copies) != len(y.Copies) {
			return fmt.Sprintf("phase %d: %d vs %d copies", ph, len(x.Copies), len(y.Copies))
		}
		for j := range x.Copies {
			if x.Copies[j] != y.Copies[j] {
				return fmt.Sprintf("phase %d copy %d: %+v vs %+v", ph, j, x.Copies[j], y.Copies[j])
			}
		}
	}
	return ""
}

// Property: every field survives the round trip, across randomized P, k,
// distribution, reference count, and processor — not just the invariant
// check. Includes the k=1 edge case and P=1 (all-local schedules: BufLen 0,
// every Copies list empty).
func TestScheduleRoundTripAllFieldsProperty(t *testing.T) {
	dists := []Dist{Cyclic, Block}
	prop := func(seed int64, pRaw, kRaw, dRaw, rRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			P:        1 + int(pRaw)%6,
			K:        1 + int(kRaw)%4,
			NumIters: 60 + rng.Intn(200),
			NumElems: 17 + rng.Intn(80),
			Dist:     dists[int(dRaw)%len(dists)],
		}
		ind := randInd(rng, cfg.NumIters, cfg.NumElems, 1+int(rRaw)%3)
		proc := rng.Intn(cfg.P)
		s, err := Light(cfg, proc, ind...)
		if err != nil {
			t.Logf("seed %d: Light: %v", seed, err)
			return false
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Logf("seed %d: WriteTo: %v", seed, err)
			return false
		}
		got, err := ReadSchedule(&buf)
		if err != nil {
			t.Logf("seed %d: ReadSchedule: %v", seed, err)
			return false
		}
		if diff := schedulesEquivalent(s, got); diff != "" {
			t.Logf("seed %d (cfg %+v proc %d): %s", seed, cfg, proc, diff)
			return false
		}
		return got.Check(ind...) == nil
	}
	if err := quick.Check(prop, quickseed.Config(t, 60)); err != nil {
		t.Fatal(err)
	}
}

// The P=1 degenerate cases pinned down explicitly. At k=1 the single phase
// owns everything, so the schedule has no remote buffers and no copy loops —
// the empty-buffer shape the codec must preserve. At k>1 even one processor
// defers references to later-phase portions, so the buffers are non-empty;
// both shapes must round-trip.
func TestScheduleRoundTripSingleProcessor(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, k := range []int{1, 2, 3} {
		cfg := Config{P: 1, K: k, NumIters: 150, NumElems: 40, Dist: Cyclic}
		ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
		s, err := Light(cfg, 0, ind...)
		if err != nil {
			t.Fatal(err)
		}
		if k == 1 && s.BufLen != 0 {
			t.Fatalf("single-phase schedule has BufLen %d", s.BufLen)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSchedule(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if diff := schedulesEquivalent(s, got); diff != "" {
			t.Fatalf("k=%d: %s", k, diff)
		}
		if k == 1 {
			for ph := range got.Phases {
				if len(got.Phases[ph].Copies) != 0 {
					t.Fatalf("phase %d grew %d copies", ph, len(got.Phases[ph].Copies))
				}
			}
		}
		if err := got.Check(ind...); err != nil {
			t.Fatal(err)
		}
	}
}
