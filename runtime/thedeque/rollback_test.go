package thedeque

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// TestTakeAfterThiefRollback forces the lost-task interleaving of Take's
// lock path. A thief claims the head of an empty deque (head 0 -> 1) and
// reads tail 0, so it must roll back. Before it does, the owner pushes X
// at index 0 and Y at index 1 (Push sees the claimed head and has room),
// then enters Take: it claims index 1, reads the thief's head 1 == t and
// blocks on the lock. The thief restores head to 0 and unlocks. Take now
// finds head 0 < t 1, so two items are present: it must return Y and
// leave X for the next Take. Consuming Y as the last item (head = t+1)
// would skip X forever.
func TestTakeAfterThiefRollback(t *testing.T) {
	const x, y = 101, 202
	for _, v := range variants {
		d := New(16, v)
		type result struct {
			v  int64
			ok bool
		}
		took := make(chan result, 1)
		testHookStealRollback = func() {
			if !d.Push(x) || !d.Push(y) {
				t.Errorf("%v: push during the thief's claim failed", v)
			}
			go func() {
				v, ok := d.Take()
				took <- result{v, ok}
			}()
			waitBlockedInTake(t, took)
		}
		_, stole := d.Steal()
		testHookStealRollback = nil
		if stole {
			t.Fatalf("%v: Steal on an empty deque succeeded", v)
		}
		if r := <-took; !r.ok || r.v != y {
			t.Fatalf("%v: blocked Take = %d,%v, want %d", v, r.v, r.ok, y)
		}
		if got, ok := d.Take(); !ok || got != x {
			t.Fatalf("%v: second Take = %d,%v, want %d (task lost after the thief's roll-back)", v, got, ok, x)
		}
		if got, ok := d.Take(); ok {
			t.Fatalf("%v: Take on a drained deque returned %d", v, got)
		}
		if got, ok := d.Steal(); ok {
			t.Fatalf("%v: Steal on a drained deque returned %d", v, got)
		}
	}
}

// waitBlockedInTake waits until some goroutine is parked on the deque
// lock inside Take. Parking happens only after Take has read head, which
// is the point the interleaving needs. It fails the test if Take returns
// without blocking or nothing parks within the deadline.
func waitBlockedInTake[T any](t *testing.T, took chan T) {
	t.Helper()
	buf := make([]byte, 1<<16)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(took) > 0 {
			t.Fatal("Take returned without blocking on the lock; the interleaving was not forced")
		}
		n := runtime.Stack(buf, true)
		for _, g := range bytes.Split(buf[:n], []byte("\n\n")) {
			if bytes.Contains(g, []byte("[sync.Mutex.Lock")) && bytes.Contains(g, []byte("(*Deque).Take")) {
				return
			}
		}
		runtime.Gosched()
	}
	t.Fatal("Take never blocked on the deque lock")
}
