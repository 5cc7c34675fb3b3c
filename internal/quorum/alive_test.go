package quorum

import "testing"

func crashedSet(ids ...ServerID) func(ServerID) bool {
	set := make(map[ServerID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(id ServerID) bool { return set[id] }
}

func TestUniformLiveQuorumExists(t *testing.T) {
	u, err := NewUniform(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !u.LiveQuorumExists(crashedSet()) {
		t.Error("no crashes: quorum must exist")
	}
	if !u.LiveQuorumExists(crashedSet(0, 1)) {
		t.Error("2 crashes with q=3, n=5: quorum must exist")
	}
	if u.LiveQuorumExists(crashedSet(0, 1, 2)) {
		t.Error("3 crashes leave only 2 alive < q=3")
	}
}

func TestGridLiveQuorumExists(t *testing.T) {
	g, err := NewGrid(9)
	if err != nil {
		t.Fatal(err)
	}
	if !g.LiveQuorumExists(crashedSet()) {
		t.Error("no crashes")
	}
	// Crash one full row (ids 0,1,2): rows 1,2 and all... columns each lose
	// one cell, so no column is fully live: system down.
	if g.LiveQuorumExists(crashedSet(0, 1, 2)) {
		t.Error("full row crashed kills every column")
	}
	// Crash a diagonal (0, 4, 8): no live row... row0 loses 0, row1 loses 4,
	// row2 loses 8: no fully live row: system down.
	if g.LiveQuorumExists(crashedSet(0, 4, 8)) {
		t.Error("diagonal crash kills every row")
	}
	// Crash two cells in one row: that row dead, but row 1 and 2 live; the
	// columns of the crashed cells are dead but another column is live.
	if !g.LiveQuorumExists(crashedSet(0, 1)) {
		t.Error("row 1,2 and column 2 live: quorum exists")
	}
}

func TestByzGridLiveQuorumExists(t *testing.T) {
	g, err := NewDissemGrid(25, 2) // r = 2 rows + 2 cols per quorum
	if err != nil {
		t.Fatal(err)
	}
	if !g.LiveQuorumExists(crashedSet()) {
		t.Error("no crashes")
	}
	// Kill cells across 4 of 5 rows: only 1 live row < r=2.
	if g.LiveQuorumExists(crashedSet(0, 5, 10, 15)) {
		t.Error("only one live row remains; need r=2")
	}
	// Kill one full row: 4 live rows, but every column loses a cell...
	// columns 0..4 each contain a cell of row 0, so no live column at all.
	if g.LiveQuorumExists(crashedSet(0, 1, 2, 3, 4)) {
		t.Error("full row crash kills all columns")
	}
	// Two crashes in the same row: 4 live rows >= 2, 3 live cols >= 2.
	if !g.LiveQuorumExists(crashedSet(0, 1)) {
		t.Error("quorum should exist")
	}
}

func TestFaultToleranceMatchesLiveCheck(t *testing.T) {
	// Property: crashing any FaultTolerance()-1 servers leaves a live quorum
	// for the uniform system (its A is exact and worst-case-free), and some
	// FaultTolerance() crashes disable it.
	u, err := NewUniform(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	a := u.FaultTolerance()
	var ids []ServerID
	for i := 0; i < a-1; i++ {
		ids = append(ids, ServerID(i))
	}
	if !u.LiveQuorumExists(crashedSet(ids...)) {
		t.Error("A-1 crashes must not disable the uniform system")
	}
	ids = append(ids, ServerID(a-1))
	if u.LiveQuorumExists(crashedSet(ids...)) {
		t.Error("A crashes must disable the uniform system")
	}
}
