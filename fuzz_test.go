package asymfence

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"asymfence/internal/cpu"
	"asymfence/internal/fence"
)

// TestFuzzSmoke is the in-tree fuzz campaign: 25 seeds under every
// design with checkers and faults on must come back clean.
func TestFuzzSmoke(t *testing.T) {
	rep, err := RunFuzz(context.Background(), FuzzOptions{Seeds: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violation != nil {
		t.Fatalf("invariant violation:\n%v", rep.Violation)
	}
	if rep.Seeds != 25 || rep.Runs != 25*5 {
		t.Fatalf("campaign shape: %d seeds, %d runs; want 25 seeds, 125 runs",
			rep.Seeds, rep.Runs)
	}
}

// TestFuzzReproducible verifies a fixed option set reproduces the exact
// same campaign, byte for byte, including the per-seed progress stream.
func TestFuzzReproducible(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		rep, err := RunFuzz(context.Background(), FuzzOptions{Seeds: 10, Progress: &buf})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violation != nil {
			t.Fatalf("invariant violation:\n%v", rep.Violation)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("fuzz campaign not reproducible:\n%s\nvs\n%s", a, b)
	}
}

// TestFuzzFindsBrokenFence runs the whole pipeline against a machine
// with a deliberately broken strong fence (drain condition skipped): the
// campaign must detect it, minimize the offending programs, and attach a
// complete reproducer.
func TestFuzzFindsBrokenFence(t *testing.T) {
	cpu.DebugBrokenFence = true
	defer func() { cpu.DebugBrokenFence = false }()

	rep, err := RunFuzz(context.Background(), FuzzOptions{
		Seeds:   50,
		Designs: []fence.Design{fence.SPlus},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := rep.Violation
	if v == nil {
		t.Fatal("broken strong fence survived a 50-seed campaign")
	}
	// The fence checker catches the skipped drain at retire time; with
	// it disabled the TSO checker would catch the reordered load later.
	if v.Checker != "fence" && v.Checker != "tso" {
		t.Fatalf("violation attributed to %q, want fence or tso", v.Checker)
	}
	r := v.Repro
	if r == nil {
		t.Fatal("violation carries no reproducer")
	}
	if r.Seed == 0 || r.Design != "S+" || r.NCores == 0 || len(r.Programs) != r.NCores {
		t.Fatalf("incomplete reproducer: %+v", r)
	}
	if len(r.Events) == 0 {
		t.Fatal("reproducer carries no trace events")
	}
	// The minimized programs must still contain the essential shape —
	// a store, a strong fence and a load — but mostly nops elsewhere.
	all := strings.Join(r.Programs, "\n")
	for _, want := range []string{"sfence", "st r", "halt"} {
		if !strings.Contains(all, want) {
			t.Errorf("minimized reproducer lost %q:\n%s", want, all)
		}
	}
	msg := v.Error()
	for _, want := range []string{"seed=", "design=S+", "trace events"} {
		if !strings.Contains(msg, want) {
			t.Errorf("rendered violation missing %q:\n%s", want, msg)
		}
	}
}

// TestFuzzShardsCompose verifies StartSeed works: two half campaigns
// cover different seeds without error.
func TestFuzzShardsCompose(t *testing.T) {
	var b1, b2 bytes.Buffer
	if _, err := RunFuzz(context.Background(), FuzzOptions{Seeds: 3, StartSeed: 1, Progress: &b1}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFuzz(context.Background(), FuzzOptions{Seeds: 3, StartSeed: 4, Progress: &b2}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("disjoint shards produced identical campaigns")
	}
}
