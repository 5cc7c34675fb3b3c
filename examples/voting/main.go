// Voting reproduces the paper's first motivating application (Section 1.1):
// the AT&T electronic voting system designed for Costa Rica. Each voter ID
// must be "locked" country-wide when presented at any of the voting
// stations, so that repeated use is detected with high probability — even
// when some stations have been altered by bribed election officials
// (Byzantine). Masking quorums make the lock work for arbitrary data
// without trusting individual stations.
//
// The demo runs an election over n=100 station replicas with b Byzantine
// stations, has honest voters vote once, and then has fraudsters attempt
// repeat votes. One repeat attempt slips through with probability ~ε;
// attempting many times is detected with virtual certainty — the property
// the deployment needed.
package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"

	"pqs"
)

const (
	stations  = 100
	byzantine = 4 // stations altered by bribed officials
	voters    = 300
	fraudTry  = 10 // times a determined fraudster re-presents the same ID
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "voting:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()

	// Masking system: the lock records are plain data (no voter signatures),
	// so b Byzantine stations must be out-voted by the read threshold k.
	sys, err := pqs.New(pqs.Config{
		N:       stations,
		Mode:    pqs.ModeMasking,
		B:       byzantine,
		Epsilon: 1e-3,
	})
	if err != nil {
		return err
	}
	fmt.Printf("election infrastructure: %d stations, %d possibly bribed\n", stations, byzantine)
	fmt.Printf("lock quorum size %d, read threshold k=%d, lock-miss probability eps=%.1e\n\n",
		sys.QuorumSize(), sys.K(), sys.Epsilon())

	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: stations, Seed: 2026})
	if err != nil {
		return err
	}
	// The bribed stations collude: they claim every voter ID is unlocked
	// (suppressing lock records) by fabricating an empty-looking value.
	for i := 0; i < byzantine; i++ {
		cluster.MakeByzantine(i, []byte("no-such-lock"))
	}

	// Each physical station would run its own client; one lock service per
	// check-in models that (distinct seeds = distinct strategy randomness).
	newStationLock := func(seed int64) (*pqs.LockService, error) {
		client, err := pqs.NewClient(pqs.ClientConfig{
			System:    sys,
			Transport: cluster.Transport(),
			WriterID:  1, // the election authority writes locks
			Seed:      seed,
		})
		if err != nil {
			return nil, err
		}
		return pqs.NewLockService(client, "voterid/")
	}

	// lockVoterID is the check-in protocol: acquire the country-wide lock
	// on the voter ID; failure to acquire means the vote is refused. The
	// lock owner is the individual check-in event (station + sequence), so
	// a repeat presentation is a *different* owner and is refused.
	checkins := 0
	lockVoterID := func(locks *pqs.LockService, voterID string, station int) (accepted bool, err error) {
		checkins++
		return locks.TryAcquire(ctx, voterID, fmt.Sprintf("station-%d/checkin-%d", station, checkins))
	}

	rng := rand.New(rand.NewSource(42))

	// Honest voters vote exactly once; every vote must be accepted.
	honest := 0
	for v := 0; v < voters; v++ {
		locks, err := newStationLock(int64(v) + 1)
		if err != nil {
			return err
		}
		ok, err := lockVoterID(locks, fmt.Sprintf("voter-%04d", v), rng.Intn(stations))
		if err != nil {
			return err
		}
		if ok {
			honest++
		}
	}
	fmt.Printf("honest voters accepted: %d/%d\n", honest, voters)

	// Fraudsters: each re-presents an already-used voter ID at fraudTry
	// different stations. A single repeat slips through only if the lock
	// quorum and the check quorum miss each other (and the bribed stations
	// cannot help, because they are below the read threshold k).
	singleMiss, anyFraud := 0, 0
	attempts := 0
	for f := 0; f < voters; f++ {
		id := fmt.Sprintf("voter-%04d", f)
		succeeded := 0
		for try := 0; try < fraudTry; try++ {
			locks, err := newStationLock(int64(10_000 + f*fraudTry + try))
			if err != nil {
				return err
			}
			ok, err := lockVoterID(locks, id, rng.Intn(stations))
			if err != nil {
				return err
			}
			attempts++
			if ok {
				succeeded++
			}
		}
		singleMiss += succeeded
		if succeeded > 0 {
			anyFraud++
		}
	}
	fmt.Printf("repeat-vote attempts: %d, slipped through: %d (rate %.2e; analysis predicts ~eps=%.1e)\n",
		attempts, singleMiss, float64(singleMiss)/float64(attempts), sys.Epsilon())
	fmt.Printf("voters achieving ANY repeat vote in %d tries: %d/%d\n", fraudTry, anyFraud, voters)
	fmt.Println("\nlarge-scale repeat voting is detected with virtual certainty, even with bribed stations;")
	fmt.Println("meanwhile the election tolerates crashes of up to", sys.FaultTolerance()-1, "stations.")
	return nil
}
