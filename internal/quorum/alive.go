package quorum

// LiveChecker is implemented by systems that can decide, given a crash
// pattern, whether some quorum consisting entirely of live servers exists.
// The sim package uses it for Monte-Carlo availability estimates, which in
// turn validate (or, for ByzGrid, refine) the analytic FailProb values.
type LiveChecker interface {
	// LiveQuorumExists reports whether a fully-live quorum exists when
	// crashed(id) reports the crash state of each server.
	LiveQuorumExists(crashed func(ServerID) bool) bool
}

// LiveQuorumExists implements LiveChecker: any q live servers form a quorum.
func (u *Uniform) LiveQuorumExists(crashed func(ServerID) bool) bool {
	alive := 0
	for i := 0; i < u.n; i++ {
		if !crashed(ServerID(i)) {
			alive++
			if alive >= u.q {
				return true
			}
		}
	}
	return false
}

// LiveQuorumExists implements LiveChecker: a live quorum needs one fully
// live row and one fully live column.
func (g *Grid) LiveQuorumExists(crashed func(ServerID) bool) bool {
	return g.liveRows(crashed, 1) && g.liveCols(crashed, 1)
}

func (g *Grid) liveRows(crashed func(ServerID) bool, need int) bool {
	found := 0
	for r := 0; r < g.rows; r++ {
		all := true
		for c := 0; c < g.cols; c++ {
			if crashed(ServerID(r*g.cols + c)) {
				all = false
				break
			}
		}
		if all {
			found++
			if found >= need {
				return true
			}
		}
	}
	return false
}

func (g *Grid) liveCols(crashed func(ServerID) bool, need int) bool {
	found := 0
	for c := 0; c < g.cols; c++ {
		all := true
		for r := 0; r < g.rows; r++ {
			if crashed(ServerID(r*g.cols + c)) {
				all = false
				break
			}
		}
		if all {
			found++
			if found >= need {
				return true
			}
		}
	}
	return false
}

// LiveQuorumExists implements LiveChecker: a live quorum needs r fully live
// rows and r fully live columns.
func (g *ByzGrid) LiveQuorumExists(crashed func(ServerID) bool) bool {
	liveRows := 0
	for r := 0; r < g.side; r++ {
		all := true
		for c := 0; c < g.side; c++ {
			if crashed(ServerID(r*g.side + c)) {
				all = false
				break
			}
		}
		if all {
			liveRows++
		}
	}
	if liveRows < g.r {
		return false
	}
	liveCols := 0
	for c := 0; c < g.side; c++ {
		all := true
		for r := 0; r < g.side; r++ {
			if crashed(ServerID(r*g.side + c)) {
				all = false
				break
			}
		}
		if all {
			liveCols++
		}
	}
	return liveCols >= g.r
}

var (
	_ LiveChecker = (*Uniform)(nil)
	_ LiveChecker = (*Threshold)(nil) // via embedded Uniform
	_ LiveChecker = (*Grid)(nil)
	_ LiveChecker = (*ByzGrid)(nil)
)
