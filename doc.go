// Package twobitreg implements the atomic single-writer multi-reader
// register of Mostéfaoui & Raynal, "Two-Bit Messages are Sufficient to
// Implement Atomic Read/Write Registers in Crash-prone Systems" (2016),
// together with the baselines its evaluation compares against and the
// harnesses that regenerate that evaluation.
//
// The register runs over an asynchronous, reliable, non-FIFO message-passing
// system of n processes of which any minority may crash (t < n/2). Its four
// message types — WRITE0, WRITE1, READ, PROCEED — carry two bits of control
// information and nothing else; sequence numbers exist only in process-local
// memory, reconstructed from an alternating-bit discipline imposed on WRITE
// traffic between every pair of processes.
//
// # Quick start
//
//	reg, err := twobitreg.Start(5)
//	if err != nil { ... }
//	defer reg.Stop()
//
//	if err := reg.Write([]byte("hello")); err != nil { ... }
//	v, err := reg.Read(3) // read through process 3
//
// The facade runs every process in-memory on its own goroutine. The
// internal packages expose the full machinery: the protocol state machine
// (internal/core), the discrete-event simulator and instrumented transports
// (internal/sim, internal/transport), the ABD baseline (internal/abd), the
// bounded-cost comparators (internal/phased), the
// linearizability checkers (internal/check — a Checker interface over the
// paper's Lemma-10 SWMR fast path, a near-linear Gibbons–Korach multi-writer
// fast path, and the exhaustive Wing–Gong differential oracle; since the
// Lemma-10 claims are checked by a single sweep, the SWMR path judges
// histories of any size with the paper's error vocabulary), the Table 1
// reproduction harness (internal/eval), and the adversarial schedule
// explorer (internal/explore).
//
// # The lane engine and the multi-writer register
//
// The pairwise alternating-bit discipline at the heart of the protocol —
// sender-side parity flip, receiver-side sequence-number reconstruction,
// parity-gated reorder buffers, forward/catch-up rules — is factored into a
// reusable engine (core.Lane): one lane carries one writer's value stream at
// one process. The paper's SWMR register is a single lane plus the client
// protocol; core.MWMRAlgorithm ("twobit-mwmr") extends it to multiple
// writers by running one lane per process and arbitrating with
// (lane index, writer id) last-writer-wins order, the Attiya–Bar-Noy–Dolev
// timestamp construction made two-bit-compatible: a write first runs a
// READ/PROCEED freshness round (so its local lane tops dominate every
// previously completed write, by quorum intersection — no sequence number
// crosses the wire), then appends its value at every own-lane index up to a
// dominating one, keeping indices consecutive for the alternating bit. Lane
// WRITEs carry the two protocol bits plus a one-byte lane-owner id,
// accounted honestly in the control-bit census exactly as regmap accounts
// its multiplexing key. The per-lane proof invariants (Lemmas 2-4,
// Properties P1-P2) are checked lane-by-lane during exploration
// (core.CheckMWGlobalInvariants), and cluster.Config generalizes its single
// Writer to a validated writer set with per-writer client handles.
//
// # Bounded lanes: batching and compaction
//
// Consecutive-index padding has a cost: sent one alternating-bit round trip
// at a time, every padded index would cross every link on its own, so one
// write by a writer whose lane lags G indices would cost O(G) flood rounds —
// unbounded under writer skew. The register bounds it with two rules:
//
//   - Batched lane frames: lanes run pipelined (per-link send dedup via an
//     explicit shipped-index counter, whole-backlog shipping, bulk Rule-R2
//     catch-up), and a coalescing emitter packs each link's
//     consecutive-index run from one drain into a single frame. A
//     mixed-value run ships as a LaneBatch frame — two control bits per
//     logical entry, plus the one-byte lane id and a uvarint count, both
//     census-accounted as addressing (metrics.EntryCounter/Addressed keep
//     Theorem 2's two-bits-per-entry accounting exact). Runs are cut only
//     between stretches of equal values, so a padded write is one frame.
//   - Lane compaction: a dominated writer's padding run is G copies of one
//     value, so it ships as a LaneCompact frame — the head and tail entries
//     (two bits each) plus the count needed to re-anchor the alternating
//     bit; the receiver materializes the run locally.
//
// Receivers unpack both frames through the same parity-gated reorder
// buffer, so the protocol logic is untouched — with one run-scoped rule on
// the relay side: Figure 1's line-15 test (wSync[j] == wsn-1) holds only
// for the first index of a run a relay adopts in one drain, so a relay
// forwards each further index to the peers it forwarded the previous one
// to in that same drain (Lane.forwardRun), and a run leaves on every link
// as the one frame it arrived as. A write's cost is then gap-independent
// and at its floor: the writer sends the freshness round plus one frame
// per peer (O(n)), and the flood settles in at most n(n-1) lane frames —
// one per ordered pair, the SWMR register's own flood cost — instead of
// O(G·n^2).
//
// And the echo goes only where someone waits for it. Every wait in Figure 1
// belongs to a process with an operation of its own: line 3 counts echoes
// to the writer, the line-20 guard echoes from the requester, line 9 echoes
// to the reader. So a relay forwards an adopted index at once to the lane's
// owner, to every peer that has sent it a READ on this register, and to
// everyone once it has started an operation itself (MWProc.Serving); toward
// every other peer the index is owed (MWProc.LaneOwed): the link's send
// cursor stays behind and the run leaves as one frame in the step that
// delivers that peer's first READ, that starts this process's own first
// operation, that resets the link (PeerRestarted), or that answers a lagging
// sender (Rule R2) — however long the run has grown, since no count caps a
// frame. An echo held at its
// sender is an echo delayed in the channel, which an asynchronous system
// already allows, so no execution's safety and no operation's termination
// changes; a write costs 2(n-1) + n(n-1) - c(c-1) frames with c members
// that serve no client, and with c = 0 exactly the all-to-all flood
// (TestMWWriteFramesAtFloor pins the formula for n = 3, 5, 7 and c = 0, 2,
// n-2, padded or not, c = 0 being 10 / 28 / 54;
// TestMWDominatedWriteCostConstantVsLinear pins 22 messages for n=5 with
// two writers at G=5 and G=40 alike; TestMWMRWriteMessagesExact pins
// BenchmarkMWMRWriteMessages' grid message for message; EXPERIMENTS.md
// E-FL1 and E-LZ1 have the served-path measurements).
// Serving is monotone per incarnation — nothing on a two-bit wire says "my
// operation is over" — so a member that stops serving a key stays eager.
// The price is stated, not hidden: pipelining gives up the reorder
// tolerance the one-in-flight pacing paid for, so the multi-writer
// register declares proto.FIFOLinks — TCP and the cluster mailboxes are FIFO
// already, and the simulator clamps per-link delivery order (head-of-line
// blocking included) when the declaration is present. Under pipelining
// Properties P1/P2 are deliberately relaxed and replaced by a per-link
// conservation invariant (processed + parked <= sender's holdings);
// Lemmas 2-4 are framing-independent and still checked.
//
// Batching is also what makes a padded write atomic to readers: the run is
// adopted in one step, from one frame, so no reader ever fixes its vector
// on one of the write's intermediate indices. Published one round trip at
// a time, each carrying the new value at a timestamp below the write's
// final one, they would not be: a read could return the new value early, a
// later read a concurrent write ordered between the intermediate and the
// final index, and a third the new value again. The pre-batching register
// did exactly that and was deleted (PR 29); the two schedules that showed
// it stay clean on this one (explore.TestPaddingWitnessesStayClean).
//
// # The keyed multi-writer store and cross-key coalescing
//
// internal/regmap multiplexes many named registers over one process set —
// the read-dominated keyed store the paper's conclusion targets — and is
// built entirely on the lane engine. Every key runs the same two-bit
// multi-writer register, core.NewMWMR with one lane per process, and writes
// run its READ/PROCEED freshness round per key. A writer set is an
// admission check, not a lane layout: each key carries one
// (regmap.Config.Writers per key, or DefaultWriters — every process unless
// set — validated through proto.ValidateWriters), and a write through an
// out-of-set process fails with cluster.ErrNotWriter at the runtime's
// client boundary, before the protocol sees it. A restricted key is then
// an unrestricted key whose other members never write: their lanes stay
// empty and cost no frame. A peer frame the register cannot take (a lane
// address outside 0..n-1, a type it does not speak) is dropped and counted
// by regmap.Node.Deliver, never a panic on the event loop.
//
// On the wire a message is the register's own frame wrapped with its key
// (KeyedMsg). The census stays honest under multiplexing: key bytes (like
// the lane id and length bytes beneath them) are addressing, declared via
// metrics.EntryCounter/Addressed, so the store reports exactly two control
// bits per logical entry. With Config.Coalesce, frames from DIFFERENT keys
// headed down the same link coalesce into one keyed multi-frame
// (regmap.MultiMsg): the goroutine store flushes per mailbox burst, the
// simulator grants a half-Δ flush window (proto.Flusher /
// transport.WithFlushWindow), and a read-dominated 50-key workload drops
// from ~15 to ~2.1 frames per operation (BenchmarkRegmapMWMR, pinned frame
// for frame by TestKeyedRunFramesExact; EXPERIMENTS.md E-RM1). The bare
// register's own cross-drain flush window (a core option) was removed —
// only its test set it, and the burst boundary left it nothing to merge
// (E-RM1): every drain flushes. The explorer judges keyed runs register by
// register ("regmap-mwmr" / "regmap-mwmr-wide", a per-key check.For pass)
// and hunts the lost-cross-key-frame mutant ("mut-regmap-frame").
//
// # The TCP runtime and the claims benchmark
//
// internal/transport.Mesh carries the same state machines over real
// sockets: a fully connected loopback/LAN mesh of length-framed two-bit
// wire messages (internal/wire) feeding cluster.KeyedNode — the one
// mailbox event loop every runtime shares (Cluster wires N of them in
// memory around single-register processes; shard.Member puts one behind a
// Mesh and a client port, which is what cmd/regnode deploys). The send
// path is pipelined per peer: Send only enqueues on the destination's
// bounded queue (or counts a drop when it is full), and a dedicated sender
// goroutine, the one writer of that peer's connection, drains everything
// queued per wakeup into a single conn.Write (writev-style batching through
// one reused encode buffer), so a live peer that stops reading never holds
// the caller. Dialing — jittered backoff, counted redials, each attempt
// bounded by transport.HandshakeTimeout and cancelled by Close — lives on the
// sender goroutine of the one peer concerned, so a dead peer's dial cycle
// never head-of-line-blocks frames to live peers; its queue overflow is
// dropped and counted, never blocking the caller, which is exactly the
// paper's crash model: reliable FIFO links between
// live processes, loss toward crashed ones. A connection opens with a
// two-way handshake — the dialer sends its id and incarnation (the mesh's
// boot time), the acceptor answers its own — which is connection framing
// like the sender id, not message control: the census still reads two
// control bits. Receive goes through one buffered transport.FrameReader per connection — hello
// included — so a burst of frames costs one read of the socket, and the
// codec copies what it keeps out of that buffer; the client protocol's two
// ends read the same way. MeshStats exports the counters — frames per conn.Write is the measured
// batching ratio. The claims benchmark (bench/, its workloads and bounds
// declared in BENCHMARK.json) drives this stack over loopback with
// closed-loop clients, judges every run — check.For per key, every
// acknowledged write in a quorum of the replayed WALs, zero failed
// operations — and reports end-to-end latency and throughput with a
// per-layer budget; TestMeshSendAllocs pins the send path's allocations,
// and EXPERIMENTS.md E-TCP1 tabulates the batching and dead-peer results.
//
// # The sharded keyed service
//
// cmd/regnode deploys the keyed store as a sharded TCP service: one
// shard.Member (mesh + keyed store on the event loop + client server, with
// recovery from stable storage at construction) per process. A
// cluster (internal/shard.ClusterConfig — one validated configuration
// type shared by regnode's JSON file and flags, shard.LocalCluster, and
// the client; invalid fields come back as typed *ConfigError values naming
// the field path, e.g. "shards[1].procs[2].mesh") is a list of shards,
// each an INDEPENDENT quorum group of processes running the coalescing
// keyed store over its own transport.Mesh. A key lives on exactly one
// shard — hash placement via shard.ShardOfKey — so capacity grows with
// machines. Clients speak a versioned binary keyed protocol
// (wire.ClientRequest/ClientResponse, version 2): requests carry a
// request id, op, key, and value over one connection-multiplexed session;
// the server answers in completion order, matched back by id, and checks
// placement before the handler runs (StatusWrongShard). The Go client is
// internal/regclient — Session (one node, pipelined concurrent requests)
// and Client (placement routing plus failover across a shard's quorum
// group members) — consumed by cmd/regctl and bench/ alike. The
// sharded throughput scaling is recorded in EXPERIMENTS.md E-SH1.
//
// # The durable register: crash-restart recovery
//
// The paper's model is crash-stop, and the SWMR register (core.Proc)
// stays Figure 1's crash-stop process. internal/storage
// makes the register the store serves — the multi-writer core.MWProc, and
// regmap.Node hosting it — crash-RESTART capable. StableStorage is the
// pluggable persistence interface and FileWAL its one log — on a file for
// deployments, on an in-memory file for the explorer and the tests, which
// crash it with Reopen. The log has explicit Sync points: a versioned
// magic, then one CRC-32C-checked frame per Sync written into space the
// file already has (it grows by whole chunks of zeros), so a Sync replays
// whole or not at all, a torn final frame is cut at open, and a log in
// another format or damaged before its last frame is refused. The
// durability contract is one line: log every lane append, sync
// before any attestation leaves. Every outbound message attests to lane
// state — a WRITE echo fills a quorum, a PROCEED certifies a freshness
// bar, a completion acknowledges a client — so a process syncs where it
// releases: a bare core.MWProc at each drain fixpoint, the regmap
// node once per burst (group commit, EXPERIMENTS.md E-GC1); what was
// never synced was never attested and may be lost. Recovery
// (storage.Recoverable: Recover replays the log into a fresh process,
// PeerRestarted resets BOTH ends of every link of the revived process and
// re-ships backlogs from position zero) restores exactly the attested
// state; link counters deliberately restart at zero because wSync doubles
// as a receive count and in-flight frames died with the old incarnation.
// The link reset is the restart protocol's, not the log's: a volatile
// peer of a restarted durable process runs it too.
// The explorer's crashrestart strategy is the adversary for this layer:
// victims (drawn from ALL pids, writer included) crash at a seeded
// protocol phase, their unsynced frame is lost, and a seeded
// virtual-time later they revive behind the simulator's incarnation fence
// (transport.SimNet.Revive) — only this adversary catches the durability
// cheats mut-wal-skipsync and mut-wal-earlyrelease. An algorithm that is
// not storage.Recoverable (every SWMR one) runs crash-stop under it.
// BenchmarkWALWrite prices the contract (file-backed synced vs unsynced
// vs in-memory appends; EXPERIMENTS.md E-WAL1), and BENCHMARK.json's
// durable-pipelined workload measures it on the served path. On the TCP
// runtime a restart is a handshake: start a member on the same addresses
// and storage (regnode -data <dir>, again, after a kill -9) and a peer
// that sees the higher incarnation fences its predecessor's connections
// and resets the link, as the restarted member does, before a frame
// crosses it (shard.LocalCluster.ReviveProc under load, on one shard, on
// two, and with only the restarted member durable, and
// scripts/shard_smoke.sh rehearse it — zero acknowledged writes lost).
//
// # Registered algorithms
//
// The explorer's registry (explore.AlgorithmNames, explore.MutantNames)
// carries every runnable protocol; this list is the documentation of record
// and is lint-checked against the registry by TestDocListsAllAlgorithms:
//
//   - twobit — the paper's SWMR register (Figure 1)
//   - twobit-gc — the same with history garbage collection
//   - twobit-oracle — the seqnum-ablation oracle (explicit sequence numbers)
//   - twobit-mwmr — the multi-writer lane-engine register (batched frames)
//   - regmap-mwmr — the 50-key coalescing keyed store
//   - regmap-mwmr-wide — the 200-key acceptance configuration
//   - abd — the unbounded ABD baseline, single writer (abd.Proc)
//   - abd-mwmr — the same abd.Proc with no designated writer: a TsReq round before each write
//   - bounded-abd — the bounded-ABD cost comparator (phased engine)
//   - attiya — the Attiya-algorithm cost comparator (phased engine)
//   - phased — the phased engine's minimal base case
//
// and the mutants, each a seeded protocol bug the explorer must catch:
//
//   - mut-ack-early — write acknowledges before its quorum
//   - mut-skip-proceed — PROCEED skips the line-20 freshness wait
//   - mut-stale-read — stale read cache on the SWMR register
//   - mut-mwmr-stale — stale read cache on the MWMR ABD baseline
//   - mut-twobit-mwmr — multi-writer write skips its freshness round
//   - mut-lane-batch — receiver tears batched lane frames
//   - mut-lane-resend — relay forwards a run's index twice on one link
//   - mut-lane-coldread — a READ does not turn the link to its sender eager
//   - mut-lane-splitrun — emitter cuts a padded write's run across frames
//   - mut-regmap-frame — receiver drops cross-key multi-frame tails
//   - mut-wal-skipsync — MWMR register's WAL never syncs, a crash empties it
//   - mut-wal-earlyrelease — keyed store releases a step before its sync
//   - mut-regmap-lonemulti — coalescer ships a lone subframe as a multi-frame wire refuses
//
// ARCHITECTURE.md maps how these pieces fit — the package graph from proto
// through the lane engine, runtimes, and harnesses, with worked message
// traces of a write and of a read.
//
// # Adversarial schedule exploration
//
// The paper's atomicity claim quantifies over every asynchronous schedule
// with a crashing minority, so internal/explore stress-tests the protocols
// under a family of adversary strategies rather than only uniform-random
// delays: per-link asymmetric speeds (asym), targeted quorum-slowing
// (slowquorum), writer/reader phase races (race), burst reordering (burst),
// crash-at-protocol-phase triggers (crashphase), writer crashes targeted at
// the freshness-round/append boundary (crashwrite — the victim dies on its
// k-th PROCEED delivery, probing the padded-append window), crash-restart
// faults replayed from stable storage (crashrestart — see the durable
// register section), and PCT-style random-priority scheduling (pct). Runs that quiesce with an operation
// still pending on a process that never crashed are flagged as liveness
// violations (Result.Stalled). Every explored run is described by a
// compact descriptor — algorithm, strategy, seed, sizes — that serializes
// to a one-line replay token such as
//
//	xb1:twobit:slowquorum:7:5:30:0.6:1
//
// Any failure reproduces byte for byte via
//
//	go test ./internal/explore -run TestReplay -replay=<token>
//
// and shrinks by bisecting the descriptor. The cmd/regexplore command runs
// budgeted sweeps (with JSON output), and the explorer's detection power is
// itself verified by mutation tests: deliberately broken protocol variants
// (a write acknowledging before its quorum, a PROCEED that skips the
// freshness wait, stale read caches on both the two-bit register and the
// MWMR baseline) must be caught within a fixed schedule budget.
//
// Multi-writer schedules (Writers >= 2, token field 9, regexplore -writers)
// drive the MWMR-capable algorithms — the twobit-mwmr register and the ABD
// baseline — with concurrent writer streams carrying per-writer tagged
// distinct values; their histories are judged by the O(n + k log k) cluster
// checker check.CheckMWMR, which replaces the exhaustive search as the
// default judge for large histories. The pct strategy optionally runs as a
// true d-bounded PCT (Schedule.PCT / regexplore -pct, token field 10):
// per-process delivery priorities with d seeded priority change points
// instead of the legacy per-event random tie-break. Schedule.Clients
// (regexplore -clients, token field 12) lets only pids 0..Clients-1 invoke
// operations: the rest relay, crash and restart but never send a READ,
// which keeps relay-to-relay links lazy for a whole run (the default lets
// every process read, so each link turns eager at its ends' first
// operation). A nightly CI workflow
// (.github/workflows/nightly.yml) sweeps every registered algorithm —
// single- and multi-writer, plus a depth-3 pct pass — on a budget and
// archives the JSON sweep reports; a benchmark job tracks checker cost
// across PRs.
package twobitreg
