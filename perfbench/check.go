package main

import (
	"time"

	"quorumconf/internal/addrspace"
)

// grant is one address a fleet handed out over /v1/allocate.
type grant struct {
	addr addrspace.Addr
	// at is when the client received the grant.
	at time.Time
}

// checkGrants counts grants that break the no-duplicate guarantee:
// outside space, equal to an address already held (taken), or handed out
// twice. A lease of a killed member (released) may be granted once more,
// but only after the kill at killedAt — it cannot have been freed before.
// Each bad grant is one failed and one wrong operation.
func (r *result) checkGrants(space addrspace.Block, taken []addrspace.Addr, grants []grant, released []addrspace.Addr, killedAt time.Time) {
	held := make(map[addrspace.Addr]bool, len(taken)+len(grants))
	for _, a := range taken {
		held[a] = true
	}
	reusable := make(map[addrspace.Addr]bool, len(released))
	for _, a := range released {
		reusable[a] = true
	}
	bad := func(format string, args ...any) {
		r.wrong++
		r.fail(1, format, args...)
	}
	for _, g := range grants {
		switch {
		case !space.Contains(g.addr):
			bad("grant %v outside the space %v", g.addr, space)
		case !held[g.addr]:
			held[g.addr] = true
		case reusable[g.addr] && !killedAt.IsZero() && g.at.After(killedAt):
			delete(reusable, g.addr) // a reclaimed lease, granted again
		default:
			bad("address %v granted twice", g.addr)
		}
	}
}
