// Package pqs implements probabilistic quorum systems (Malkhi, Reiter,
// Wool, Wright: "Probabilistic Quorum Systems", PODC 1997 / Information and
// Computation 170, 2001): replicated-data quorums that intersect with
// probability 1-ε instead of always, buying dramatically better fault
// tolerance and failure probability at unchanged (optimal) load.
//
// The package offers three constructions over a universe of n servers:
//
//   - ε-intersecting systems (ModeBenign): tolerate crash failures;
//     quorums are uniformly random sets of size ~ℓ√n (Section 3).
//   - (b, ε)-dissemination systems (ModeDissemination): tolerate b
//     Byzantine servers storing self-verifying (signed) data (Section 4).
//   - (b, ε)-masking systems (ModeMasking): tolerate b Byzantine servers
//     storing arbitrary data via a read threshold k (Section 5).
//
// Start with New to resolve a System from a target ε, then run replicas
// (in-process via NewCluster, or over TCP via ListenAndServe/Dial) and
// access them through a Client:
//
//	sys, _ := pqs.New(pqs.Config{N: 100, Epsilon: 1e-3, Mode: pqs.ModeBenign})
//	cluster, _ := pqs.NewCluster(pqs.ClusterConfig{N: sys.N(), Seed: 1})
//	client, _ := pqs.NewClient(pqs.ClientConfig{
//		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 1,
//	})
//	client.Write(ctx, "x", []byte("hello"))
//	r, _ := client.Read(ctx, "x")
//
// The quality measures of every System — Load, FaultTolerance, FailProb,
// Epsilon — are exact, computed from hypergeometric identities rather than
// the paper's asymptotic bounds (which are also available as EpsilonBound).
//
// # Straggler tolerance
//
// Because any set sampled by the access strategy is a valid quorum
// (Section 3: quorums are ~ℓ√n uniformly random servers), a client never
// has to wait for specific stragglers. ClientConfig.Tuning holds the knobs
// that exploit this:
//
//   - Spares and HedgeDelay oversample the access set: up to Spares extra
//     servers are drawn by the same strategy and promoted when a member's
//     call fails or each time HedgeDelay elapses without completion
//     (hedged requests).
//   - EagerRead returns a read as soon as its mode's acceptance rule is
//     decidable — quorum-size replies (benign), plus a verified reply
//     (dissemination), or an unbeatable K-voucher candidate (masking) —
//     draining stragglers in the background (read repair included).
//   - W completes a write after W acknowledgements; the in-flight calls
//     keep delivering the write to the remaining members while the
//     operation's context stays live.
//
// Promotion preserves the ε analysis at the attempt level: spares come from
// the same uniform sample and are dispatched only on observed failure or on
// an identity-blind timer, which is the same conditioning-on-liveness that
// quorum re-sampling (RetryingClient) already performs. The empirical-ε
// benchmarks (BenchmarkEmpiricalEpsilon*Hedged) measure the bound with
// hedging enabled.
package pqs

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/ring"
	"pqs/internal/sv"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// Mode selects the failure model and with it the access protocol.
type Mode = register.Mode

// Modes.
const (
	// ModeBenign tolerates crash failures only (Section 3).
	ModeBenign = register.Benign
	// ModeDissemination tolerates Byzantine servers for self-verifying
	// (signed) data (Section 4).
	ModeDissemination = register.Dissemination
	// ModeMasking tolerates Byzantine servers for arbitrary data
	// (Section 5).
	ModeMasking = register.Masking
)

// Config describes the system to construct. New resolves it to the smallest
// quorum size meeting the ε target (or uses Q verbatim when given).
type Config struct {
	// N is the number of servers.
	N int
	// Mode is the failure model. Default ModeBenign.
	Mode Mode
	// Epsilon is the target consistency error (0 < ε < 1). Ignored when Q
	// is set. Default 1e-3, the guarantee used throughout the paper's
	// evaluation.
	Epsilon float64
	// B is the number of Byzantine servers tolerated (dissemination and
	// masking modes).
	B int
	// Q, when non-zero, fixes the quorum size explicitly instead of solving
	// for the minimal size meeting Epsilon.
	Q int
}

// System is a resolved probabilistic quorum system: a sampling strategy
// plus its exact quality measures. It implements the internal quorum
// sampling interface and is accepted by ClientConfig.
type System struct {
	quorum.System

	mode Mode
	b    int
	k    int

	epsilon      float64
	epsilonBound float64
}

// New resolves cfg into a System.
func New(cfg Config) (*System, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("pqs: N = %d must be positive", cfg.N)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeBenign
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-3
	}
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return nil, fmt.Errorf("pqs: Epsilon = %v outside (0, 1)", cfg.Epsilon)
	}
	if cfg.B < 0 {
		return nil, fmt.Errorf("pqs: B = %d must be non-negative", cfg.B)
	}
	switch cfg.Mode {
	case ModeBenign:
		q := cfg.Q
		if q == 0 {
			var err error
			q, err = core.MinQForEpsilon(cfg.N, cfg.Epsilon)
			if err != nil {
				return nil, err
			}
		}
		e, err := core.NewEpsilonIntersecting(cfg.N, q)
		if err != nil {
			return nil, err
		}
		return &System{
			System: e, mode: cfg.Mode,
			epsilon: e.Epsilon(), epsilonBound: e.EpsilonBound(),
		}, nil
	case ModeDissemination:
		q := cfg.Q
		if q == 0 {
			var err error
			q, err = core.MinQForDissemination(cfg.N, cfg.B, cfg.Epsilon)
			if err != nil {
				return nil, err
			}
		}
		d, err := core.NewDissemination(cfg.N, q, cfg.B)
		if err != nil {
			return nil, err
		}
		return &System{
			System: d, mode: cfg.Mode, b: cfg.B,
			epsilon: d.Epsilon(), epsilonBound: d.EpsilonBound(),
		}, nil
	case ModeMasking:
		q := cfg.Q
		if q == 0 {
			var err error
			q, err = core.MinQForMasking(cfg.N, cfg.B, cfg.Epsilon)
			if err != nil {
				return nil, err
			}
		}
		m, err := core.NewMasking(cfg.N, q, cfg.B)
		if err != nil {
			return nil, err
		}
		return &System{
			System: m, mode: cfg.Mode, b: cfg.B, k: m.K(),
			epsilon: m.Epsilon(), epsilonBound: m.EpsilonBound(),
		}, nil
	default:
		return nil, fmt.Errorf("pqs: unknown mode %v", cfg.Mode)
	}
}

// Mode returns the system's failure model.
func (s *System) Mode() Mode { return s.mode }

// B returns the Byzantine threshold (0 in benign mode).
func (s *System) B() int { return s.b }

// K returns the masking read threshold (0 outside masking mode).
func (s *System) K() int { return s.k }

// Epsilon returns the exact consistency error of the construction: the
// probability that a read misses the last written value under the mode's
// failure model (Theorems 3.2, 4.2, 5.2).
func (s *System) Epsilon() float64 { return s.epsilon }

// EpsilonBound returns the paper's closed-form bound on Epsilon
// (Theorems 3.16, 4.4/4.6, 5.10). Always >= Epsilon.
func (s *System) EpsilonBound() float64 { return s.epsilonBound }

// PickWithSpares implements quorum.SpareSampler by forwarding to the
// underlying construction (all three constructions are carried by the
// uniform system, which supports spare sampling). Systems built over a
// carrier without spare support degrade to Pick with no spares.
func (s *System) PickWithSpares(r *rand.Rand, spares int) (q, spare []quorum.ServerID) {
	if ss, ok := s.System.(quorum.SpareSampler); ok {
		return ss.PickWithSpares(r, spares)
	}
	return s.System.Pick(r), nil
}

var _ quorum.SpareSampler = (*System)(nil)

// PickInto implements quorum.InplacePicker by forwarding to the underlying
// construction, letting clients sample quorums into a reused buffer with
// zero allocations (the data-plane fast path). Carriers without in-place
// support degrade to an allocating Pick.
func (s *System) PickInto(r *rand.Rand, dst []quorum.ServerID) []quorum.ServerID {
	if ip, ok := s.System.(quorum.InplacePicker); ok {
		return ip.PickInto(r, dst)
	}
	return append(dst[:0], s.System.Pick(r)...)
}

var _ quorum.InplacePicker = (*System)(nil)

// WriterKey is a writer's signing identity for self-verifying data.
type WriterKey struct {
	// ID is the writer id embedded in timestamps.
	ID uint32
	// Public verifies; Private signs.
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// GenerateWriterKey creates a signing identity for writer id using entropy
// from rand (pass crypto/rand.Reader in production).
func GenerateWriterKey(id uint32, rand interface{ Read([]byte) (int, error) }) (WriterKey, error) {
	kp, err := sv.GenerateKey(rand)
	if err != nil {
		return WriterKey{}, err
	}
	return WriterKey{ID: id, Public: kp.Public, Private: kp.Private}, nil
}

// Registry maps writer ids to public keys; dissemination readers require
// one to decide which replies are verifiable. Add returns an error for a key
// that is not ed25519.PublicKeySize bytes long.
type Registry = sv.Registry

// NewRegistry returns an empty writer-key registry.
func NewRegistry() *Registry { return sv.NewRegistry() }

// Tuning is the access-tuning block — Spares, HedgeDelay, AdaptiveHedge,
// EagerRead, W, ReadRepair — embedded by ClientConfig (and
// by the sim, chaos and load harness configs). Each knob is documented on
// the type; the README section "Configuring access tuning" shows it in use.
type Tuning = config.Tuning

// Topology is the cluster-shape block — Cells, Transport plane,
// latency model — embedded by the same configs as Tuning. Fields a
// config cannot honor are documented on that config.
type Topology = config.Topology

// ClientConfig configures a Client.
type ClientConfig struct {
	// Tuning holds the access-tuning knobs (see the Tuning type).
	Tuning
	// Topology holds the cluster-shape knobs. NewClient honors Cells:
	// Cells > 1 partitions the keyspace across that many independent quorum
	// cells by consistent hashing (64 virtual nodes per cell), cell i being
	// a full System-sized PQS over servers [i*N, (i+1)*N) of the Transport
	// (see ClusterConfig.Cells) with its own strategy, ε budget and stats.
	// Transport and the latency fields are ignored here (the plane comes
	// from the Transport field below).
	Topology
	// System is the quorum system to access (from New).
	System *System
	// Transport reaches the replicas: a LocalCluster's Transport or a TCP
	// client from Dial.
	Transport Transport
	// WriterID identifies this client's writes. Clients that only read may
	// leave it zero.
	WriterID uint32
	// Key, when set, signs writes (required for dissemination writers).
	// NewClient refuses a Key whose public half differs from the key
	// Registry holds for WriterID: no reader could verify such a client's
	// writes.
	Key WriterKey
	// Registry verifies replies (required for dissemination readers). It
	// remembers which signatures it has seen verify and which this client
	// made itself, so a value is checked once, not once per read.
	Registry *Registry
	// Seed fixes the access strategy's randomness; use distinct seeds per
	// client. Zero means seed 1.
	Seed int64
	// RequireFullWrite makes writes fail unless the whole quorum
	// acknowledged (see register.Options.RequireFullWrite).
	RequireFullWrite bool
}

// Transport delivers one request to one server. Implemented by LocalCluster
// transports and TCP clients.
type Transport = transport.Transport

// Client accesses a replicated variable through quorums. Safe for
// concurrent use; the single-writer protocol requires one writer per key.
type Client = register.Client

// ReadResult reports a read's outcome and diagnostics.
type ReadResult = register.ReadResult

// WriteResult reports a write's outcome and diagnostics.
type WriteResult = register.WriteResult

// AccessStats reports a client's cumulative straggler-tolerance counters
// (spares promoted, early completions, late replies and late repairs) and,
// for dissemination readers, how many signature verdicts ran ed25519 and how
// many reused an earlier check; see Client.Stats and Client.WaitDrained.
type AccessStats = register.AccessStats

// RingView is a versioned description of a multi-cell client's routing
// ring (ClientConfig.Cells > 1): which cells currently serve the keyspace,
// and the view version ordering advertisements. See Client.View,
// Client.ApplyView, Client.AdvertiseView and Client.RefreshView for how a
// deployment rebalances on cell Join/Leave: an administrator advertises a
// new view under a reserved register key, diffusion spreads it between
// replicas, and clients that refresh adopt it and route new keys to the
// new member set.
type RingView = ring.View

// Errors re-exported for errors.Is matching.
var (
	// ErrNoReplies: no quorum member answered.
	ErrNoReplies = register.ErrNoReplies
	// ErrPartialWrite: RequireFullWrite was set and some member failed.
	ErrPartialWrite = register.ErrPartialWrite
)

// RetryingClient wraps a Client with quorum re-sampling on transient
// failures (crashed or unreachable quorum members), the practical
// counterpart of the live-quorum-probing literature the paper cites in
// Section 2.1. Each retry draws a fresh quorum from the same strategy, so
// the ε analysis is preserved.
type RetryingClient = register.RetryingClient

// NewRetryingClient wraps client with up to attempts quorum samples per
// operation.
func NewRetryingClient(client *Client, attempts int) (*RetryingClient, error) {
	return register.NewRetryingClient(client, attempts)
}

// NewClient builds a protocol client for the system's mode.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.System == nil {
		return nil, errors.New("pqs: ClientConfig.System is required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("pqs: ClientConfig.Transport is required")
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	opts := register.Options{
		System:           cfg.System,
		Mode:             cfg.System.Mode(),
		Transport:        cfg.Transport,
		Rand:             quorum.NewRand(seed, quorum.StreamClient, 0),
		Clock:            ts.NewClock(cfg.WriterID),
		Registry:         cfg.Registry,
		RequireFullWrite: cfg.RequireFullWrite,
		Tuning:           cfg.Tuning,
		Cells:            cfg.Cells,
	}
	if cfg.Key.Private != nil {
		opts.Signer = cfg.Key.Private
	}
	return register.NewClient(opts)
}
