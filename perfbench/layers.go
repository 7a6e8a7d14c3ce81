package main

import (
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// fillTable rebuilds an address table for space with every address in
// held occupied — the run's final occupancy.
func fillTable(space addrspace.Block, held []addrspace.Addr) *addrspace.Table {
	t, err := addrspace.NewTable(space)
	if err != nil {
		return nil
	}
	for _, a := range held {
		_, _ = t.Mark(a, addrspace.Occupied) // out-of-space grants are counted by the checker
	}
	return t
}

// probeTable times addrspace.Table.FirstFree at the run's final
// occupancy.
func probeTable(v map[string]float64, space addrspace.Block, held []addrspace.Addr) {
	t := fillTable(space, held)
	if t == nil {
		return
	}
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		_, _ = t.FirstFree()
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	v["addrspace.firstfree_us"] = median(us)
	v["addrspace.occupancy"] = float64(t.OccupiedCount())
}

// ballotMix is the message mix of one member-forwarded allocation on a
// three-daemon fleet: the request, two ballot legs per voter, the commit,
// the grant and the holder updates.
func ballotMix() []*wire.Envelope {
	const addr = addrspace.Addr(0x0A000101)
	env := func(typ string, src, dst radio.NodeID, cat metrics.Category, p any) *wire.Envelope {
		return &wire.Envelope{MsgID: 1 << 20, Type: typ, Src: src, Dst: dst, Category: cat, Span: 1<<48 | 77, Payload: p}
	}
	entry := addrspace.Entry{Status: addrspace.Occupied, Version: 4242}
	return []*wire.Envelope{
		env(msg.TComReq, 2, 1, metrics.CatConfig, msg.ComReq{PathHops: 1}),
		env(msg.TQuorumClt, 1, 2, metrics.CatConfig, msg.QuorumClt{BallotID: 9000, Owner: 1, Addr: addr, Allocator: 1}),
		env(msg.TQuorumClt, 1, 3, metrics.CatConfig, msg.QuorumClt{BallotID: 9000, Owner: 1, Addr: addr, Allocator: 1}),
		env(msg.TQuorumCfm, 2, 1, metrics.CatConfig, msg.QuorumCfm{BallotID: 9000, Entry: addrspace.Entry{Version: 4241}, HasReplica: true}),
		env(msg.TQuorumCfm, 3, 1, metrics.CatConfig, msg.QuorumCfm{BallotID: 9000, Entry: addrspace.Entry{Version: 4241}, HasReplica: true}),
		env(msg.TQuorumUpd, 1, 2, metrics.CatConfig, msg.QuorumUpd{Owner: 1, Addr: addr, Entry: entry}),
		env(msg.TQuorumUpd, 1, 3, metrics.CatConfig, msg.QuorumUpd{Owner: 1, Addr: addr, Entry: entry}),
		env(msg.TComCfg, 1, 2, metrics.CatConfig, msg.ComCfg{Addr: addr, NetworkID: msg.NetTag{Addr: 0x0A000001, Nonce: 7}, Configurer: 1, PathHops: 1}),
		env(msg.TUpdateLoc, 1, 2, metrics.CatSync, msg.UpdateLoc{Configurer: 2, ConfigurerIP: 0x0A000002, Addr: addr}),
		env(msg.TUpdateLoc, 1, 3, metrics.CatSync, msg.UpdateLoc{Configurer: 2, ConfigurerIP: 0x0A000002, Addr: addr}),
	}
}

// probeWire times wire.Encode and wire.Decode over the ballot message
// mix, and sizes the owner's REPLICA_DIST frame at the run's final
// occupancy — to be read against the 65,507-byte UDP payload limit.
func probeWire(v map[string]float64, space addrspace.Block, held []addrspace.Addr) {
	mix := ballotMix()
	const rounds = 2000
	frames := make([][]byte, len(mix))
	var enc, dec []float64
	for round := 0; round < 5; round++ {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			for j, e := range mix {
				b, err := wire.Encode(e)
				if err != nil {
					return
				}
				frames[j] = b
			}
		}
		enc = append(enc, float64(time.Since(t0).Nanoseconds())/float64(rounds*len(mix)))
		t0 = time.Now()
		for i := 0; i < rounds; i++ {
			for _, b := range frames {
				if _, err := wire.Decode(b); err != nil {
					return
				}
			}
		}
		dec = append(dec, float64(time.Since(t0).Nanoseconds())/float64(rounds*len(mix)))
	}
	v["wire.encode_ns"] = median(enc)
	v["wire.decode_ns"] = median(dec)

	t := fillTable(space, held)
	if t == nil {
		return
	}
	frame, err := wire.Encode(&wire.Envelope{
		MsgID: 1 << 20, Type: msg.TReplicaDist, Src: 1, Dst: 2, Category: metrics.CatSync,
		Payload: msg.ReplicaDist{Info: msg.HolderInfo{Owner: 1, OwnerIP: space.Lo, Pool: addrspace.NewPool(t), Holders: []radio.NodeID{1, 2, 3}}},
	})
	if err == nil {
		v["wire.replica_frame_bytes"] = float64(len(frame))
	}
}
