package cpu

import (
	"fmt"
	"strings"
)

// DebugState renders the core's microarchitectural state for diagnostics
// (used by the simulator's deadlock reports and by tests).
func (c *Core) DebugState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core %d: pc=%d finished=%v draining=%v robSlots=%d wb=%d wbInFlight=%v wbBounced=%v fences=%d bs=%v\n",
		c.cfg.ID, c.pc, c.finished, c.draining, c.robSlots, len(c.wb), c.wbInFlight, c.wbBounced, len(c.fences), c.bs.Lines())
	if len(c.wb) > 0 {
		fmt.Fprintf(&b, "  wb head: addr=%#x seq=%d retryAt=%d order=%v\n", c.wb[0].addr, c.wb[0].seq, c.wbRetryAt, c.wbOrder)
	}
	for i := 0; i < c.robN; i++ {
		if i >= 6 {
			fmt.Fprintf(&b, "  ... %d more rob entries\n", c.robN-i)
			break
		}
		e := c.at(i)
		fmt.Fprintf(&b, "  rob[%d]: pc=%d %v resolved=%v performed=%v addrOK=%v addr=%#x ready=%d\n",
			i, e.pc, e.in, e.resolved, e.performed, e.addrOK, e.addr, e.ready)
	}
	for _, f := range c.fences {
		fmt.Fprintf(&b, "  fence seq=%d wee=%v module=%d remotePS=%v\n", f.seq, f.wee, f.module, f.remotePS)
	}
	return b.String()
}
