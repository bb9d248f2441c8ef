// Package comparisondiag is a Go implementation of fault diagnosis
// under the comparison (MM) model, reproducing
//
//	I. A. Stewart, "A general algorithm for detecting faults under the
//	comparison diagnosis model", IPDPS 2010.
//
// The package re-exports, from the internal implementation packages,
// the surface the examples and the paper's experiments use:
//
//   - interconnection-network construction (14 families of Section 5),
//   - MM-model syndromes with pluggable faulty-tester behaviour,
//   - the Set_Builder algorithm and the Theorem 1 Diagnose procedure,
//     plus the bind-once Engine,
//   - the Chiang–Tan and Yang baselines plus exact references,
//   - the distributed protocols of the Conclusions on a BSP simulator,
//   - one-port test scheduling and fault-injection campaigns.
//
// The serving stack — the HTTP service, churn rebinding, implicit
// Cayley engines, result caches and the persistent campaign runtime —
// is driven through cmd/diagnosed and cmd/diagnose (see docs/).
//
// Quick start:
//
//	nw := comparisondiag.NewHypercube(10)
//	faults := comparisondiag.RandomFaults(nw.Graph().N(), 10, rng)
//	s := comparisondiag.NewLazySyndrome(faults, comparisondiag.Mimic{})
//	found, stats, err := comparisondiag.Diagnose(nw, s)
//	// found.Equal(faults) == true
//
// # Serving many syndromes: the Engine
//
// The free functions rebuild all syndrome-independent state per call.
// When one network is diagnosed again and again — monitoring loops,
// Monte-Carlo studies, serving traffic — bind an Engine once instead:
// it precomputes the Theorem 1 partition, pools correctly sized
// scratches, binds a word-parallel final-pass kernel from the
// network's declared (and CSR-verified) Cayley structure — hypercubes
// and their folded/enhanced/augmented variants, k-ary tori — and
// exposes a batch API with a worker pool. Results and syndrome look-up
// counts are bit-identical to the free functions; Engine.KernelName
// reports the bound kernel, and docs/kernels.md describes the
// descriptor/registry architecture and how to add a family.
//
//	eng := comparisondiag.NewEngine(nw)
//	found, stats, err := eng.Diagnose(s)           // one syndrome
//	results := eng.DiagnoseBatch(syndromes, comparisondiag.BatchOptions{})
//	// results[i] corresponds to syndromes[i]; throughput scales with
//	// workers and, on one core, with the engine's amortised hot path.
package comparisondiag

import (
	"comparisondiag/internal/baseline"
	"comparisondiag/internal/bitset"
	"comparisondiag/internal/campaign"
	"comparisondiag/internal/core"
	"comparisondiag/internal/distsim"
	"comparisondiag/internal/graph"
	"comparisondiag/internal/schedule"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Core model types.
type (
	// Graph is an immutable undirected graph over dense int32 node ids.
	Graph = graph.Graph
	// Adjacencer is the neighbour-enumeration interface the diagnosis
	// layer runs against: a materialised *Graph (CSR) or an implicit
	// descriptor-backed generator (see docs/scale.md).
	Adjacencer = graph.Adjacencer
	// FaultSet is a set of node ids (faulty processors).
	FaultSet = bitset.Set
	// Network is an interconnection network with diagnosis metadata.
	Network = topology.Network
	// Part is one cell of a diagnosis partition.
	Part = topology.Part
	// Syndrome serves MM-model comparison test results.
	Syndrome = syndrome.Syndrome
	// Behavior models the answers of faulty testers.
	Behavior = syndrome.Behavior
	// Stats reports the cost profile of a Diagnose call.
	Stats = core.Stats
	// Options tunes Diagnose.
	Options = core.Options
	// SetBuilderResult is the outcome of one Set_Builder run.
	SetBuilderResult = core.SetBuilderResult
	// Engine is a diagnosis handle bound once to a network: partition,
	// scratch pools and kernel selection are precomputed, then many
	// syndromes are served with Diagnose/DiagnoseBatch.
	Engine = core.Engine
	// BatchOptions tunes Engine.DiagnoseBatch (worker pool, persistent
	// Pool, hypothesis-grouped shared certification and shared
	// final-prefix growth — see docs/runtime.md).
	BatchOptions = core.BatchOptions
	// ExtendedStar is the Chiang–Tan Fig. 2 structure.
	ExtendedStar = baseline.ExtendedStar
	// DistStats reports the cost of a distributed protocol run.
	DistStats = distsim.Stats
)

// Faulty-tester behaviours (see syndrome.Behavior).
type (
	// AllZero vouches for everyone.
	AllZero = syndrome.AllZero
	// Mimic answers exactly like a healthy tester.
	Mimic = syndrome.Mimic
	// Inverted answers the opposite of the truth.
	Inverted = syndrome.Inverted
	// RandomBehavior answers pseudo-randomly but deterministically.
	RandomBehavior = syndrome.Random
)

// Strategy selects the part certificate used by Diagnose.
const (
	// StrategyScan is the robust default certificate.
	StrategyScan = core.StrategyScan
	// StrategyPaper is the paper-literal contributor certificate.
	StrategyPaper = core.StrategyPaper
)

// Topology constructors (Section 5 families).
var (
	// NewHypercube constructs Q_n.
	NewHypercube = topology.NewHypercube
	// NewCrossedCube constructs CQ_n.
	NewCrossedCube = topology.NewCrossedCube
	// NewTwistedCube constructs TQ_n (odd n).
	NewTwistedCube = topology.NewTwistedCube
	// NewFoldedHypercube constructs FQ_n.
	NewFoldedHypercube = topology.NewFoldedHypercube
	// NewEnhancedHypercube constructs Q_{n,f}.
	NewEnhancedHypercube = topology.NewEnhancedHypercube
	// NewAugmentedCube constructs AQ_n.
	NewAugmentedCube = topology.NewAugmentedCube
	// NewShuffleCube constructs SQ_n (n ≡ 2 mod 4).
	NewShuffleCube = topology.NewShuffleCube
	// NewTwistedNCube constructs TQ'_n.
	NewTwistedNCube = topology.NewTwistedNCube
	// NewKAryNCube constructs Q^k_n.
	NewKAryNCube = topology.NewKAryNCube
	// NewAugmentedKAryNCube constructs AQ_{n,k}.
	NewAugmentedKAryNCube = topology.NewAugmentedKAryNCube
	// NewStar constructs S_n.
	NewStar = topology.NewStar
	// NewNKStar constructs S_{n,k}.
	NewNKStar = topology.NewNKStar
	// NewPancake constructs P_n.
	NewPancake = topology.NewPancake
	// NewArrangement constructs A_{n,k}.
	NewArrangement = topology.NewArrangement
	// ParseNetwork builds a network from a spec like "q:10" or
	// "kary:4,3"; see its documentation for the grammar.
	ParseNetwork = topology.Parse
)

// Syndrome and fault-set helpers.
var (
	// NewFaultSet returns an empty fault set over n nodes.
	NewFaultSet = bitset.New
	// FaultSetOf builds a fault set from explicit members.
	FaultSetOf = bitset.FromMembers
	// RandomFaults samples a uniform fault set of the given size.
	RandomFaults = syndrome.RandomFaults
	// ClusterFaults concentrates faults around a centre node.
	ClusterFaults = syndrome.ClusterFaults
	// NeighborhoodFaults makes a node's neighbourhood faulty.
	NeighborhoodFaults = syndrome.NeighborhoodFaults
	// NewLazySyndrome serves test results on demand from a fault set.
	NewLazySyndrome = syndrome.NewLazy
	// SyndromeTableSize is Σ_u C(deg(u), 2).
	SyndromeTableSize = syndrome.TableSize
	// AllBehaviors returns one instance of every faulty-tester model.
	AllBehaviors = syndrome.AllBehaviors
)

// Diagnosis algorithms.
var (
	// NewEngine binds an Engine to a network (bind once, diagnose many).
	NewEngine = core.NewEngine
	// Diagnose solves the fault diagnosis problem (Theorem 1).
	Diagnose = core.Diagnose
	// DiagnoseOpts is Diagnose with explicit Options.
	DiagnoseOpts = core.DiagnoseOpts
	// DiagnoseGraph runs the Theorem 1 procedure on a custom graph.
	DiagnoseGraph = core.DiagnoseGraph
	// DiagnoseWithVerification is the partition-free fallback.
	DiagnoseWithVerification = core.DiagnoseWithVerification
	// DiagnoseAny tries the partition procedure, then the fallback.
	DiagnoseAny = core.DiagnoseAny
	// SetBuilder is the paper's Set_Builder(u0) procedure.
	SetBuilder = core.SetBuilder
)

// Baselines and references.
var (
	// CTDiagnose is the Chiang–Tan extended-star baseline.
	CTDiagnose = baseline.CTDiagnose
	// FindExtendedStar builds an extended star by search.
	FindExtendedStar = baseline.FindExtendedStar
	// HypercubeExtendedStar builds the analytic Q_n extended star.
	HypercubeExtendedStar = baseline.HypercubeExtendedStar
	// YangDiagnose is Yang's cycle-decomposition hypercube baseline.
	YangDiagnose = baseline.YangDiagnose
	// BruteDiagnose is the exhaustive exact reference (≤ 64 nodes).
	BruteDiagnose = baseline.BruteDiagnose
	// ExactDiagnosability computes δ exactly on small graphs.
	ExactDiagnosability = baseline.Diagnosability
)

// Distributed protocols (Conclusions).
var (
	// RunWave executes the distributed Set_Builder protocol.
	RunWave = distsim.RunWave
	// RunDistCT executes the distributed extended-star protocol.
	RunDistCT = distsim.RunDistCT
)

// Test scheduling (the Section 6 one-port cost model).
type (
	// ScheduledTest is one comparison test s_U(V, W).
	ScheduledTest = schedule.Test
	// TestPlan is a conflict-free assignment of tests to time slots.
	TestPlan = schedule.Plan
	// TestRecorder captures the demand set of a diagnosis run.
	TestRecorder = schedule.Recorder
)

var (
	// NewTestRecorder wraps a syndrome and records consulted tests.
	NewTestRecorder = schedule.NewRecorder
	// ScheduleTests greedily packs tests into one-port slots.
	ScheduleTests = schedule.Greedy
	// FullSyndromeTests enumerates a graph's complete test set.
	FullSyndromeTests = schedule.FullSyndromeTests
)

// Fault-injection campaigns (robustness beyond the guarantee).
type (
	// CampaignConfig tunes a Monte-Carlo fault-injection sweep.
	CampaignConfig = campaign.Config
	// CampaignPoint aggregates outcomes at one fault count.
	CampaignPoint = campaign.Point
)

// CampaignSweep runs a fault-injection campaign against Diagnose.
var CampaignSweep = campaign.Sweep

// Sentinel errors re-exported for errors.Is checks.
var (
	// ErrNoPartition: the network cannot meet Theorem 1's partition
	// precondition (gap G3); use DiagnoseWithVerification.
	ErrNoPartition = topology.ErrNoPartition
	// ErrNoHealthyPart: no candidate part certified fault-free.
	ErrNoHealthyPart = core.ErrNoHealthyPart
)
