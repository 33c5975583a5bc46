package cpu

import (
	"math"

	"asymfence/internal/cache"
	"asymfence/internal/coherence"
	"asymfence/internal/isa"
	"asymfence/internal/mem"
	"asymfence/internal/noc"
	"asymfence/internal/trace"
)

// issueLoads starts memory access for every load whose address is ready.
// Loads may issue speculatively, arbitrarily deep in the ROB. TSO
// store-to-load forwarding is honored: a load first searches older stores
// (unretired ones in the ROB, then the write buffer) for a matching
// address. Only the unissued-load queue is walked; issued loads leave it.
func (c *Core) issueLoads(now int64) {
	// Recompute the earliest future address-ready among unissued loads
	// (an idle-memoization wake term: nothing else re-examines a load
	// whose address resolved with a future ready time).
	c.issueWake = math.MaxInt64
	kept := c.lq[:0]
	for _, h := range c.lq {
		e := c.entry(h)
		if c.issueLoad(now, e) {
			continue
		}
		kept = append(kept, h)
	}
	c.lq = kept
}

// issueLoad tries to issue one unissued load and reports whether it did.
func (c *Core) issueLoad(now int64, e *robEntry) bool {
	if !e.addrOK {
		return false
	}
	if now < e.addrReady {
		if e.addrReady < c.issueWake {
			c.issueWake = e.addrReady
		}
		return false
	}
	fwd, hit, ok := c.searchOlderStores(e)
	if !ok {
		return false // an older store's address or data is unresolved
	}
	if hit {
		e.forwarded = true
		c.acted = true
		c.performLoadValue(now+1, e, fwd)
		return true
	}
	line := e.line()
	if _, hit := c.l1.Lookup(line); hit {
		c.acted = true
		c.performLoad(now+c.cfg.L1HitLatency, e)
		return true
	}
	// Miss: merge into an outstanding request for the line or send a
	// new GetS, subject to the MSHR limit.
	if lm := c.missFor(line); lm != nil {
		c.acted = true
		lm.waiters = append(lm.waiters, e.ref())
		return true
	}
	if c.nMiss >= c.cfg.MSHRs {
		return false
	}
	lm := c.freeMSHR()
	lm.busy = true
	lm.line = line
	lm.reqID = c.nextReqID()
	lm.waiters = append(lm.waiters[:0], e.ref())
	c.nMiss++
	c.send(now, c.home(line), coherence.Msg{
		Type: coherence.GetS, Line: line, Core: c.cfg.ID, ReqID: lm.reqID,
	}, noc.CatProtocol)
	return true
}

// searchOlderStores looks for the youngest older store writing the load's
// word. It returns ok == false when disambiguation is impossible (an
// older store's address is unknown) or the matching store's data is not
// ready yet; hit with the forwarded value on a forwarding match; and
// neither when the load may access memory.
func (c *Core) searchOlderStores(ld *robEntry) (val uint32, hit, ok bool) {
	// Unretired older stores, youngest first.
	for i := c.sq.n - 1; i >= 0; i-- {
		h := c.sq.at(i)
		if h.seq > ld.seq {
			continue
		}
		e := c.entry(h)
		if !e.addrOK {
			return 0, false, false
		}
		if e.addr == ld.addr {
			if e.in.Op == isa.Xchg {
				// Atomics execute at the ROB head; the load simply waits.
				return 0, false, false
			}
			if !e.dataOK {
				return 0, false, false
			}
			return e.dataVal, true, true
		}
	}
	// Write buffer, youngest first.
	for i := len(c.wb) - 1; i >= 0; i-- {
		if c.wb[i].addr == ld.addr {
			return c.wb[i].val, true, true
		}
	}
	return 0, false, true
}

// performLoad completes a load from the memory system at cycle when.
func (c *Core) performLoad(when int64, e *robEntry) {
	c.performLoadValue(when, e, c.store.Load(e.addr))
}

// performLoadValue completes a load with an explicit value (forwarding).
func (c *Core) performLoadValue(when int64, e *robEntry, v uint32) {
	c.acted = true
	if c.chk != nil {
		c.chk.OnLoadPerform(when, c.cfg.ID, e.addr, v, e.forwarded, e.seq)
	}
	e.performed = true
	e.val = v
	e.ready = when
	e.resolved = true
	c.publish(e)
	c.propagate(when, e)
}

// handleLoadGrant completes an outstanding load miss.
func (c *Core) handleLoadGrant(now int64, m coherence.Msg) {
	lm := c.missFor(m.Line)
	if lm == nil || lm.reqID != m.ReqID {
		return // stale response for a squashed transaction
	}
	lm.busy = false
	c.nMiss--
	st := cache.Shared
	if m.Type == coherence.GrantE {
		st = cache.Exclusive
	}
	c.installL1(now, m.Line, st)
	// Squashes and rollbacks drop their loads from waiters, so every
	// handle here is live.
	for _, h := range lm.waiters {
		c.performLoad(now, c.entry(h))
	}
}

// installL1 places a line in the L1, handling the eviction of the victim.
// A dirty victim is written back; if the victim's address is in the Bypass
// Set, the writeback asks the directory to keep this core as a sharer so
// the BS keeps observing writes to it (paper §5.1). Clean victims are
// evicted silently (the directory still lists us as a sharer, which is
// exactly what BS monitoring needs).
func (c *Core) installL1(now int64, l mem.Line, st cache.State) {
	ev, evicted := c.l1.Install(l, st)
	if evicted && ev.Dirty {
		c.send(now, c.home(ev.Line), coherence.Msg{
			Type: coherence.PutM, Line: ev.Line, Core: c.cfg.ID,
			KeepSharer: c.bs.Contains(ev.Line),
		}, noc.CatProtocol)
	}
	if c.chk != nil {
		c.chk.MarkLine(l)
		if evicted {
			c.chk.MarkLine(ev.Line)
		}
	}
}

// squashFrom rolls the pipeline back to re-fetch from the entry at ROB
// position idx: a speculative load there was invalidated (or a younger
// dependence chain must replay). Fetch-side register state is restored
// from the undo log, and every handle to a squashed entry is dropped.
func (c *Core) squashFrom(idx int) {
	first := c.at(idx)
	cut, pc := first.seq, first.pc
	c.undoTo(cut)
	// Drop the squashed entries and cancel their memory transactions.
	for i := idx; i < c.robN; i++ {
		e := c.at(i)
		c.robSlots -= e.slots
		if e.in.Op == isa.Work {
			c.workFree = e.prevWork
		}
	}
	for i := range c.mshrs {
		lm := &c.mshrs[i]
		kept := lm.waiters[:0]
		for _, w := range lm.waiters {
			if w.seq < cut {
				kept = append(kept, w)
			}
		}
		lm.waiters = kept
	}
	for n := len(c.lq); n > 0 && c.lq[n-1].seq >= cut; n-- {
		c.lq = c.lq[:n-1]
	}
	c.sq.dropFrom(cut)
	if c.mispredicted.seq >= cut {
		c.mispredicted = ref{}
	}
	if c.atomEntry.seq >= cut {
		c.atomEntry = ref{}
	}
	c.pc = pc
	c.robN = idx
	c.fetchEnd = false
}

// undoTo unwinds the fetch-side register undo log, youngest first,
// removing every record with seq >= cut. A restored producer handle is
// always live and unresolved: publish patches the record when it resolves.
func (c *Core) undoTo(cut uint64) {
	n := len(c.undoLog)
	for n > 0 && c.undoLog[n-1].seq >= cut {
		u := &c.undoLog[n-1]
		c.regs[u.reg] = u.prev
		n--
	}
	c.undoLog = c.undoLog[:n]
}

// redirectMispredict squashes the wrong-path instructions younger than the
// oldest mispredicted branch and redirects fetch to the correct target.
// It runs once per cycle at the step boundary (a one-cycle redirect
// penalty, as in a real pipeline).
func (c *Core) redirectMispredict() {
	h := c.mispredicted
	c.mispredicted = ref{}
	if h.seq == 0 {
		return
	}
	e := c.entry(h)
	idx := c.posOf(h.slot)
	if idx >= c.robN {
		return
	}
	c.st.Mispredicts++
	if idx+1 < c.robN {
		c.squashFrom(idx + 1)
	}
	if e.actualTaken {
		c.pc = e.in.Target
	} else {
		c.pc = e.pc + 1
	}
	c.fetchEnd = false
}

// squashSpeculativeLoads squashes performed-but-unretired loads to line l
// (an incoming invalidation conflicts with them). It returns whether any
// squash happened.
func (c *Core) squashSpeculativeLoads(now int64, l mem.Line) bool {
	for i := 0; i < c.robN; i++ {
		e := c.at(i)
		if e.in.Op == isa.Ld && e.performed && !e.forwarded && e.line() == l {
			c.st.Squashes++
			c.tr.Emit(now, trace.KSquash, int32(c.cfg.ID), uint64(l), int64(e.pc), 0, 0)
			c.squashFrom(i)
			return true
		}
	}
	return false
}
