package cpu

import (
	"testing"

	"asymfence/internal/isa"
)

// TestStaleHandlePanics: once an entry retires and the ring wraps onto
// its slot, dereferencing the old handle must panic rather than return
// the younger instruction now in that slot.
func TestStaleHandlePanics(t *testing.T) {
	c := New(Config{}, &isa.Program{}, nil, nil)
	c.fetch(0) // allocates the window; the empty program fetches nothing
	fetchNop := func() *robEntry {
		e := c.newEntry()
		c.seq++
		e.in, e.seq = isa.Instr{Op: isa.Nop}, c.seq
		c.pushROB(e)
		return e
	}
	first := fetchNop()
	h := first.ref()
	if c.entry(h) != first {
		t.Fatal("live handle does not dereference to its entry")
	}
	// Retire it, then fetch a full window: the last fetch reuses its slot.
	c.robHead, c.robN, c.robSlots = c.slotAt(1), c.robN-1, c.robSlots-first.slots
	for i := 0; i < c.cfg.ROBSize; i++ {
		fetchNop()
	}
	if c.robN != c.cfg.ROBSize || c.rob[h.slot].seq == h.seq {
		t.Fatalf("ring did not wrap onto the retired slot (robN %d)", c.robN)
	}
	defer func() {
		if r := recover(); r != "cpu: stale ROB handle" {
			t.Fatalf("recovered %v, want the stale-handle panic", r)
		}
	}()
	c.entry(h)
	t.Fatal("dereferencing a stale handle did not panic")
}
