package main

import (
	"errors"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

func TestCheckGrantsCountsDuplicatesAndStrays(t *testing.T) {
	space := addrspace.Block{Lo: 1, Hi: 100}
	t0 := time.Unix(0, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	grants := []grant{
		{addr: 2, at: at(1)},
		{addr: 3, at: at(2)},
		{addr: 3, at: at(3)},   // planted duplicate
		{addr: 1, at: at(4)},   // a fleet member's own address
		{addr: 500, at: at(5)}, // outside the space
	}
	r := newResult()
	r.checkGrants(space, []addrspace.Addr{1}, grants, nil, time.Time{})
	if r.wrong != 3 || r.failed != 3 {
		t.Fatalf("wrong %d failed %d, want 3 and 3: %v", r.wrong, r.failed, r.problems)
	}
}

func TestCheckGrantsAllowsReclaimedLeaseAfterKill(t *testing.T) {
	space := addrspace.Block{Lo: 1, Hi: 100}
	t0 := time.Unix(0, 0)
	kill := t0.Add(10 * time.Second)
	lease := grant{addr: 7, at: t0}
	ok := newResult()
	ok.checkGrants(space, nil, []grant{lease, {addr: 7, at: kill.Add(time.Second)}}, []addrspace.Addr{7}, kill)
	if ok.failed != 0 {
		t.Fatalf("re-grant of a reclaimed lease after the kill counted as failed: %v", ok.problems)
	}
	early := newResult()
	early.checkGrants(space, nil, []grant{lease, {addr: 7, at: kill.Add(-time.Second)}}, []addrspace.Addr{7}, kill)
	if early.wrong != 1 {
		t.Fatalf("re-grant before the kill: wrong %d, want 1", early.wrong)
	}
	twice := newResult()
	twice.checkGrants(space, nil, []grant{lease, {addr: 7, at: kill.Add(time.Second)}, {addr: 7, at: kill.Add(2 * time.Second)}}, []addrspace.Addr{7}, kill)
	if twice.wrong != 1 {
		t.Fatalf("reclaimed lease granted twice more: wrong %d, want 1", twice.wrong)
	}
}

func TestCheckScenarioCountsConflictsAndUnconfigured(t *testing.T) {
	planted := map[addrspace.Addr][]radio.NodeID{42: {3, 9}, 43: {4, 5}}
	s := &scenarioRun{
		horizon:      time.Minute,
		unconfigured: 2,
		conflicts:    planted,
		persistent:   persisting(planted, map[addrspace.Addr][]radio.NodeID{42: {3, 9, 11}}),
	}
	r := newResult()
	r.checkScenario(s)
	if r.failed != 4 {
		t.Fatalf("failed %d, want 4 (2 unconfigured + 2 conflicts): %v", r.failed, r.problems)
	}
	if r.wrong != 1 {
		t.Fatalf("wrong %d, want 1 (the conflict on 42 persists): %v", r.wrong, r.problems)
	}
}

func TestCheckCrashCountsAFailedWrongOperation(t *testing.T) {
	r := newResult()
	r.checkCrash(&crash{seed: 9, joins: 12, value: "assignment to entry in nil map"})
	if r.attempted != 12 || r.failed != 1 || r.wrong != 1 {
		t.Fatalf("attempted %d failed %d wrong %d, want 12, 1 and 1", r.attempted, r.failed, r.wrong)
	}
}

func TestRunScenarioRecoversAPanic(t *testing.T) {
	spec := simMobile(tinySize)
	spec.scenario = func(int64) workload.Scenario { panic("planted") }
	_, err := runScenario(spec, 1, nil)
	var c *crash
	if !errors.As(err, &c) || c.value != "planted" {
		t.Fatalf("runScenario = %v, want the planted panic as a crash", err)
	}
}

func TestPersistingNeedsTheSameHolders(t *testing.T) {
	before := map[addrspace.Addr][]radio.NodeID{1: {1, 2}, 2: {3, 4}, 3: {5, 6}}
	after := map[addrspace.Addr][]radio.NodeID{1: {1, 2}, 2: {3, 7}}
	got := persisting(before, after)
	if len(got) != 1 || len(got[1]) != 2 {
		t.Fatalf("persisting = %v, want only address 1", got)
	}
}
