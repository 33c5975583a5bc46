package cpu_test

import (
	"testing"

	"asymfence/internal/fence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/sim"
)

// The ROB is a ring of ROBSize (140) slots, so an entry's slot is reused
// about 140 fetches after the entry retires. These programs are longer
// than that and keep a value's producer alive in fetch-side register
// state or in the undo log across its slot's reuse. runNoStale fails the
// test on any panic, including the ring's stale-handle check.

const robSize = 140

func runNoStale(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("simulation panicked: %v", r)
		}
	}()
	f()
}

// TestRegisterReadAfterProducerSlotReused: a cold load's value is read
// once by an instruction captured while the load was in flight, and once
// more than ROBSize instructions later, after the load's slot has been
// reused.
func TestRegisterReadAfterProducerSlotReused(t *testing.T) {
	const a, v = 0x1000, 0x2468
	store := mem.NewStore()
	store.StoreWord(a, v)
	b := isa.NewBuilder("slotreuse")
	b.Li(1, a)
	b.Ld(5, 1, 0)       // cold miss: still in flight when the next is fetched
	b.Add(6, 5, isa.R0) // operand names the load
	for i := 0; i < robSize+60; i++ {
		b.AddI(7, 7, 1)
	}
	b.Add(8, 5, isa.R0) // fetched after the load's slot was reused
	b.AddI(9, 6, 1)
	b.Halt()
	var m *sim.Machine
	runNoStale(t, func() { m = runOne(t, b.MustBuild(), store) })
	want := map[isa.Reg]uint32{5: v, 6: v, 7: robSize + 60, 8: v, 9: v + 1}
	for r, w := range want {
		if got := m.Core(0).Reg(r); got != w {
			t.Errorf("r%d = %#x, want %#x", r, got, w)
		}
	}
}

// TestMispredictRestoresRetiredProducer: a wrong-path write to r5 saves
// r5's in-flight producer (a cold load) in the undo log. The load then
// performs and retires, and more than ROBSize wrong-path instructions
// reuse its slot, before the branch resolves as mispredicted. The squash
// must restore r5 to the load's value.
func TestMispredictRestoresRetiredProducer(t *testing.T) {
	const a, bAddr = 0x1000, 0x2000
	store := mem.NewStore()
	store.StoreWord(a, bAddr) // r5 = bAddr
	store.StoreWord(bAddr, 1) // r7 = 1: the branch is taken
	b := isa.NewBuilder("squashrestore")
	b.Li(1, a)
	b.Ld(5, 1, 0)             // P: cold miss
	b.Ld(7, 5, 0)             // Q: issues only once P performs
	b.Bne(7, isa.R0, "taken") // forward: predicted not taken, resolves with Q
	b.Li(5, 999)              // wrong path: its undo record names P
	for i := 0; i < robSize+20; i++ {
		b.AddI(8, 8, 1)
	}
	b.Halt()
	b.Label("taken")
	b.Add(6, 5, isa.R0)
	b.Halt()
	var m *sim.Machine
	runNoStale(t, func() { m = runOne(t, b.MustBuild(), store) })
	c := m.Core(0)
	if c.Stats().Mispredicts == 0 {
		t.Fatal("the branch was not mispredicted; the squash path was not exercised")
	}
	want := map[isa.Reg]uint32{5: bAddr, 6: bAddr, 7: 1, 8: 0}
	for r, w := range want {
		if got := c.Reg(r); got != w {
			t.Errorf("r%d = %#x, want %#x", r, got, w)
		}
	}
}

// TestWPlusRollbackFarPastFence: two threads deadlock on each other's
// Bypass Sets (store-buffering with weak fences) while each has retired
// more than ROBSize post-fence instructions, so the W+ rollback unwinds
// undo records whose producers' slots have been reused. One of them names
// a pre-fence cold load overwritten just after the fence. After replay
// the registers must hold their sequential values.
func TestWPlusRollbackFarPastFence(t *testing.T) {
	const (
		x, y   = 0x10000, 0x10100
		priv0  = 0x20000
		priv1  = 0x30000
		cold   = 3
		loaded = 77
		post   = robSize + 60
	)
	store := mem.NewStore()
	store.StoreWord(priv0+cold*mem.LineSize, loaded)
	store.StoreWord(priv1+cold*mem.LineSize, loaded)
	build := func(mine, other, priv int32) *isa.Program {
		b := isa.NewBuilder("rollback")
		b.Li(1, x)
		b.Ld(2, 1, 0)
		b.Li(1, y)
		b.Ld(2, 1, 0)
		b.Work(3000) // let the other thread warm up
		for i := 0; i < 8; i++ {
			// Fill the window behind the Work, so the cold load below is
			// fetched (and issued) only once the Work retires.
			b.Nop()
		}
		b.Li(3, 1)
		b.Li(4, priv)
		for i := int32(0); i < cold; i++ {
			b.St(3, 4, i*mem.LineSize)
		}
		b.Ld(12, 4, cold*mem.LineSize) // pre-fence cold load
		b.Li(1, mine)
		b.St(3, 1, 0)
		b.WFence()
		b.Li(1, other)
		b.Ld(10, 1, 0)
		b.Add(13, 12, isa.R0)
		b.Li(12, 5) // its undo record names the cold load
		for i := 0; i < post; i++ {
			b.AddI(14, 14, 3)
		}
		b.Add(15, 14, 13)
		b.Halt()
		return b.MustBuild()
	}
	idle := isa.NewBuilder("idle").Halt().MustBuild()
	var m *sim.Machine
	runNoStale(t, func() {
		var err error
		m, err = sim.New(sim.Config{NCores: 4, Design: fence.WPlus},
			[]*isa.Program{build(x, y, priv0), build(y, x, priv1), idle, idle}, store)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	})
	recoveries := m.Core(0).Stats().Recoveries + m.Core(1).Stats().Recoveries
	if recoveries == 0 {
		t.Fatal("no W+ rollback happened; the scenario no longer deadlocks")
	}
	want := map[isa.Reg]uint32{12: 5, 13: loaded, 14: 3 * post, 15: 3*post + loaded}
	for core := 0; core < 2; core++ {
		for r, w := range want {
			if got := m.Core(core).Reg(r); got != w {
				t.Errorf("core %d: r%d = %d, want %d", core, r, got, w)
			}
		}
	}
}
