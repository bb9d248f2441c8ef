// Package comparisondiag is a Go implementation of fault diagnosis
// under the comparison (MM) model, reproducing
//
//	I. A. Stewart, "A general algorithm for detecting faults under the
//	comparison diagnosis model", IPDPS 2010.
//
// The package re-exports the library's public surface from the internal
// implementation packages:
//
//   - interconnection-network construction (14 families of Section 5),
//   - MM-model syndromes with pluggable faulty-tester behaviour,
//   - the Set_Builder algorithm and the Theorem 1 Diagnose procedure,
//   - the Chiang–Tan and Yang baselines plus exact references,
//   - a BSP simulator for the distributed protocols of the Conclusions.
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
	"comparisondiag/internal/serve"
	"comparisondiag/internal/syndrome"
	"comparisondiag/internal/topology"
)

// Core model types.
type (
	// Graph is an immutable undirected graph over dense int32 node ids.
	Graph = graph.Graph
	// GraphBuilder accumulates edges for a Graph.
	GraphBuilder = graph.Builder
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
	// SyndromeTable is a fully materialised syndrome.
	SyndromeTable = syndrome.Table
	// Stats reports the cost profile of a Diagnose call.
	Stats = core.Stats
	// Options tunes Diagnose.
	Options = core.Options
	// SetBuilderResult is the outcome of one Set_Builder run.
	SetBuilderResult = core.SetBuilderResult
	// Scratch holds reusable hot-path buffers (see core.Scratch for the
	// result-lifetime contract of scratch-backed calls).
	Scratch = core.Scratch
	// Engine is a diagnosis handle bound once to a network: partition,
	// scratch pools and kernel selection are precomputed, then many
	// syndromes are served with Diagnose/DiagnoseBatch.
	Engine = core.Engine
	// BatchOptions tunes Engine.DiagnoseBatch (worker pool, persistent
	// Pool, hypothesis-grouped shared certification and shared
	// final-prefix growth — see docs/runtime.md).
	BatchOptions = core.BatchOptions
	// BatchResult is one syndrome's outcome in a DiagnoseBatch call.
	BatchResult = core.BatchResult
	// BatchPool abstracts the worker pool DiagnoseBatch runs on;
	// CampaignRuntime implements it with persistent workers.
	BatchPool = core.BatchPool
	// ResultCache memoises whole diagnosis outcomes per (hypothesis,
	// behaviour, bound, strategy) — opt in via Options.ResultCache.
	ResultCache = core.ResultCache
	// CacheStats is a ResultCache observability snapshot.
	CacheStats = core.CacheStats
	// ExtendedStar is the Chiang–Tan Fig. 2 structure.
	ExtendedStar = baseline.ExtendedStar
	// DistStats reports the cost of a distributed protocol run.
	DistStats = distsim.Stats
	// CayleyDescriptor declares a network's algebraic adjacency
	// structure; engines bind specialised final-pass kernels from it
	// (see docs/kernels.md).
	CayleyDescriptor = graph.CayleyDescriptor
	// XORCayley declares N(u) = {u ⊕ m} over a mask set (hypercubes
	// and their folded/enhanced/augmented variants).
	XORCayley = graph.XORCayley
	// AdditiveCayley declares the k-ary n-cube's ±1-per-digit
	// generators.
	AdditiveCayley = graph.AdditiveCayley
	// MixedRadixCayley declares per-dimension arities and arbitrary
	// digit-vector generators (augmented k-ary n-cubes).
	MixedRadixCayley = graph.MixedRadixCayley
	// CayleyStructured is the optional Network extension that declares
	// a CayleyDescriptor.
	CayleyStructured = topology.CayleyStructured
	// Adjacencer is the neighbour-enumeration interface the diagnosis
	// layer runs against: a materialised *Graph (CSR) or an implicit
	// descriptor-backed generator (see docs/scale.md).
	Adjacencer = graph.Adjacencer
	// CayleyAdjacency generates a Cayley graph's adjacency on the fly
	// from its descriptor — no CSR arrays, O(degree) working memory.
	CayleyAdjacency = graph.CayleyAdjacency
)

// Churn tolerance: incremental rebinding, degraded-mode diagnosis and
// the distsim fault-injection harness (see docs/churn.md).
type (
	// GraphRemoval is the delta of Graph.RemoveNodes/RemoveEdges: the
	// compacted surviving component plus the old↔new id maps.
	GraphRemoval = graph.Removal
	// GraphGrowth is the gain-direction delta of RestoreGraph (or
	// Graph.Flap): the regrown component, its id maps, and a Remaining
	// removal for whatever is still missing.
	GraphGrowth = graph.Growth
	// GraphDelta is the sealed union of *GraphRemoval and *GraphGrowth
	// accepted by Engine.Rebind and Engine.Survivor.
	GraphDelta = graph.Delta
	// RebindReport summarises one Engine.Rebind or Engine.Survivor
	// derivation: node/edge losses, δ→δ′ descent or ascent, partition
	// survival/re-growth, kernel fallback or promotion, and cache
	// remapping.
	RebindReport = core.RebindReport
	// FaultPlan is a deterministic, seedable network fault-injection
	// schedule for the BSP simulator (drops, duplicates, delays, slow
	// links, node crashes).
	FaultPlan = distsim.FaultPlan
	// SlowLink declares a fixed extra delay on one edge of a FaultPlan.
	SlowLink = distsim.SlowLink
	// Crash silences one node from a given round on.
	Crash = distsim.Crash
	// Rejoin returns a crashed node to service from a given round on.
	Rejoin = distsim.Rejoin
	// RecoveryPlan schedules node re-joins against a FaultPlan's
	// crashes (see CollectServer.ReplayRecovering).
	RecoveryPlan = distsim.RecoveryPlan
	// FaultStats counts a run's injected faults.
	FaultStats = distsim.FaultStats
	// FaultEvent is one injected fault in a run's replayable ledger.
	FaultEvent = distsim.FaultEvent
)

// RestoreGraph re-admits removed nodes/edges into a removal's
// survivor, producing the GraphGrowth that Engine.Rebind ascends with;
// a full restore reproduces the original graph bit-identically.
var RestoreGraph = graph.Restore

// Faulty-tester behaviours (see syndrome.Behavior).
type (
	// AllZero vouches for everyone.
	AllZero = syndrome.AllZero
	// AllOne accuses everyone.
	AllOne = syndrome.AllOne
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
	// ValidatePartition checks the Theorem 1 preconditions for a
	// custom partition.
	ValidatePartition = topology.ValidatePartition
	// NetworkCatalog lists the supported families and their formulas.
	NetworkCatalog = topology.Catalog
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
	// BuildSyndromeTable materialises a complete syndrome table.
	BuildSyndromeTable = syndrome.BuildTable
	// SyndromeTableSize is Σ_u C(deg(u), 2).
	SyndromeTableSize = syndrome.TableSize
	// SyndromeConsistent checks a fault hypothesis against a syndrome.
	SyndromeConsistent = syndrome.Consistent
	// AllBehaviors returns one instance of every faulty-tester model.
	AllBehaviors = syndrome.AllBehaviors
)

// Diagnosis algorithms.
var (
	// NewEngine binds an Engine to a network (bind once, diagnose many).
	NewEngine = core.NewEngine
	// NewGraphEngine binds an Engine to an explicit graph and partition.
	NewGraphEngine = core.NewGraphEngine
	// NewCayleyEngine binds an implicit engine straight from a
	// CayleyDescriptor — no CSR is ever materialised, so million-node
	// instances bind in the memory of their scratch buffers (see
	// docs/scale.md).
	NewCayleyEngine = core.NewCayleyEngine
	// NewCayleyAdjacency compiles a CayleyDescriptor into an implicit
	// Adjacencer (validating its shape, not its edges).
	NewCayleyAdjacency = graph.NewCayleyAdjacency
	// CayleyParts computes the Theorem 1 partition of a declared Cayley
	// family from its coset structure — no edge scan, O(parts) memory.
	CayleyParts = topology.CayleyParts
	// CSRFootprintBytes estimates the CSR bytes an n-node m-edge graph
	// materialises; compare CayleyAdjacency.FootprintBytes.
	CSRFootprintBytes = graph.CSRFootprintBytes
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
	// SetBuilderInto is SetBuilder against a reusable Scratch: zero
	// steady-state allocations; the result is a view into the scratch.
	SetBuilderInto = core.SetBuilderInto
	// SetBuilderParallel splits the growth rounds across workers for
	// very large graphs — CSR or implicit adjacency alike; same tree,
	// possibly more look-ups.
	SetBuilderParallel = core.SetBuilderParallel
	// NewScratch allocates hot-path buffers for graphs on n nodes.
	NewScratch = core.NewScratch
	// NewResultCache builds a bounded engine result cache (see
	// docs/runtime.md).
	NewResultCache = core.NewResultCache
	// NewResultCacheWithAdmission is NewResultCache with an optional
	// admit-on-second-sight admission policy (scan resistance; see
	// docs/churn.md).
	NewResultCacheWithAdmission = core.NewResultCacheWithAdmission
	// NewResultCacheWithSketch is NewResultCache with count-min-sketch
	// admission: a key is admitted after an estimated threshold
	// sightings, with periodic counter aging (see docs/churn.md).
	NewResultCacheWithSketch = core.NewResultCacheWithSketch
	// ClampWorkers normalises a worker count against GOMAXPROCS.
	ClampWorkers = core.ClampWorkers
	// CertifyPart is the scan certificate for a partition cell.
	CertifyPart = core.CertifyPart
	// VerifyCayley checks a CayleyDescriptor against a graph's CSR
	// adjacency; engines require this to pass before trusting a
	// declaration (Engine.BindCayley runs it for you).
	VerifyCayley = graph.VerifyCayley
	// DetectXORCayley probes a raw graph for XOR-Cayley structure.
	DetectXORCayley = graph.DetectXORCayley
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
	// RunCentralCollect gathers the complete syndrome at node 0 and
	// diagnoses centrally — the baseline the Conclusions argue against.
	RunCentralCollect = distsim.RunCentralCollect
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
	// ScheduleLowerBound is the busiest-participant makespan bound.
	ScheduleLowerBound = schedule.LowerBound
	// FullSyndromeTests enumerates a graph's complete test set.
	FullSyndromeTests = schedule.FullSyndromeTests
)

// Fault-injection campaigns (robustness beyond the guarantee).
type (
	// CampaignConfig tunes a Monte-Carlo fault-injection sweep.
	CampaignConfig = campaign.Config
	// CampaignPoint aggregates outcomes at one fault count.
	CampaignPoint = campaign.Point
	// CampaignRuntime is the persistent batch-serving worker pool
	// (pinned scratches and PRNGs, chunked trial queue); it implements
	// BatchPool and drives SweepRuntime (see docs/runtime.md).
	CampaignRuntime = campaign.Runtime
)

// CampaignSweep runs a fault-injection campaign against Diagnose.
var CampaignSweep = campaign.Sweep

// NewCampaignRuntime starts a persistent worker pool bound to an
// engine; share it across sweeps and batches, Close when done.
var NewCampaignRuntime = campaign.NewRuntime

// NewShardedCampaignRuntime starts one worker group per engine
// snapshot, so Q20-scale sweeps spread over several scratch pools and
// binding snapshots; outcomes stay bit-identical across shard counts.
var NewShardedCampaignRuntime = campaign.NewShardedRuntime

// CampaignSweepRuntime is CampaignSweep on a caller-owned runtime.
var CampaignSweepRuntime = campaign.SweepRuntime

type (
	// Service is the diagnosis-as-a-service HTTP front end behind
	// cmd/diagnosed: an engine registry, per-engine request coalescing
	// into grouped DiagnoseBatch calls, streaming campaigns, and a
	// Prometheus /metrics exporter (see docs/service.md). It implements
	// http.Handler.
	Service = serve.Server
	// ServiceConfig tunes a Service (registry cap, opt-in linger
	// window, batch ceiling, per-engine cache and pool sizes; the pool
	// size also caps concurrent batches).
	ServiceConfig = serve.Config
	// ServiceSnapshot is the programmatic form of /metrics.
	ServiceSnapshot = serve.Snapshot
)

// NewService builds a diagnosis service from cfg (zero value =
// defaults); serve it with any http.Server and stop it with Close.
var NewService = serve.New

// ParseBehavior resolves a behaviour name ("mimic", "allzero",
// "allone", "inverted", "random") and seed to a Behavior — the parser
// behind cmd/diagnose -behavior and the service's JSON requests.
var ParseBehavior = syndrome.ParseBehavior

// Sentinel errors re-exported for errors.Is checks.
var (
	// ErrNoPartition: the network cannot meet Theorem 1's partition
	// precondition (gap G3); use DiagnoseWithVerification.
	ErrNoPartition = topology.ErrNoPartition
	// ErrNoHealthyPart: no candidate part certified fault-free.
	ErrNoHealthyPart = core.ErrNoHealthyPart
	// ErrTooManyFaults: the diagnosis exceeded the fault bound.
	ErrTooManyFaults = core.ErrTooManyFaults
	// ErrNoSurvivingPartition: churn left no partition satisfying the
	// Theorem 1 preconditions even at δ′ = 0; the rebound engine holds
	// no parts and Diagnose calls report this (wrapped).
	ErrNoSurvivingPartition = core.ErrNoSurvivingPartition
)
