// Package mpi defines the message-passing interface the parallel 3-D FFT
// is written against, mirroring the slice of MPI-3.0 the paper uses:
// blocking and non-blocking all-to-all (MPI_Alltoallv / MPI_Ialltoallv),
// MPI_Test for manual progression, MPI_Wait, and a barrier.
//
// Three engines implement the interface:
//
//   - mpi/sim: ranks run in virtual time over the simulated fabric of
//     package simnet. Buffers are optional (no payload is moved); this
//     engine reproduces the paper's performance phenomena at paper scale.
//   - mpi/mem: ranks are goroutines exchanging real data in one process,
//     optionally with emulated link delays. This engine is used for
//     end-to-end numerical verification and demos.
//   - mpi/net: one rank per OS process over a TCP mesh.
//
// mem and net are two links under one reliable-delivery core, package
// mpi/transport, which also owns their communicator; the exchange
// schedules both run are package mpi/sched.
//
// Collective calls must be issued in the same order by every rank of a
// world (the usual MPI requirement); the engines match collectives across
// ranks by call sequence number.
package mpi

import (
	"fmt"
	"strings"
)

// Request is a handle to a pending non-blocking collective operation.
type Request interface{}

// CommAlg selects the exchange schedule an engine uses to realize an
// all-to-all. The zero value is the round-robin pairwise schedule, the
// only algorithm that existed before schedules became tunable, so zeroed
// parameter sets reproduce the historical behavior exactly.
type CommAlg int

const (
	// CommPairwise is the libNBC-style round-robin pairwise exchange:
	// every peer pair is posted eagerly at call time (O(p) outstanding
	// messages, one per peer).
	CommPairwise CommAlg = iota
	// CommBruck is the Bruck algorithm: ⌈log2 p⌉ store-and-forward rounds
	// with local pack/rotate scratch. Each round moves one combined packet
	// per rank, so the message count drops from p−1 to log p at the cost
	// of forwarding each block up to log p times — the winning trade for
	// small per-peer payloads (large p, tiny tiles).
	CommBruck
	// CommHier is the hierarchical node-aware schedule: ranks exchange
	// intra-node blocks directly, gather their inter-node blocks on a
	// node leader, leaders exchange combined per-node packets, and
	// leaders scatter to their members. Message count across the fabric
	// drops to nodes², at the cost of gather/scatter hops.
	CommHier
	// CommWindowed is pairwise with a bounded window of in-flight peer
	// pairs: distance i's send is released only after enough earlier
	// receives complete, bounding memory and fabric contention at large
	// p. Window = p degenerates to CommPairwise.
	CommWindowed
)

// CommAlgs lists all exchange schedules in display order.
func CommAlgs() []CommAlg { return []CommAlg{CommPairwise, CommBruck, CommHier, CommWindowed} }

var commAlgNames = map[CommAlg]string{
	CommPairwise: "pairwise", CommBruck: "bruck", CommHier: "hier", CommWindowed: "windowed",
}

func (a CommAlg) String() string {
	if s, ok := commAlgNames[a]; ok {
		return s
	}
	return fmt.Sprintf("CommAlg(%d)", int(a))
}

// Valid reports whether a is one of the defined schedules.
func (a CommAlg) Valid() bool { return a >= CommPairwise && a <= CommWindowed }

// ParseCommAlg resolves a schedule from its name ("pairwise", "bruck",
// "hier"/"hierarchical", "windowed"/"window"). The empty string is the
// default pairwise schedule. Matching is case-insensitive.
func ParseCommAlg(name string) (CommAlg, error) {
	switch strings.ToLower(name) {
	case "", "pairwise":
		return CommPairwise, nil
	case "bruck":
		return CommBruck, nil
	case "hier", "hierarchical":
		return CommHier, nil
	case "windowed", "window":
		return CommWindowed, nil
	}
	return 0, fmt.Errorf("mpi: unknown exchange schedule %q (want pairwise, bruck, hier, or windowed)", name)
}

// Exchange configures how a communicator realizes its all-to-all
// collectives. The zero value selects the pairwise schedule with default
// knobs — exactly the pre-tunable behavior.
type Exchange struct {
	// Alg is the schedule.
	Alg CommAlg
	// Window caps in-flight peer pairs for CommWindowed (0 = engine
	// default; values ≥ p−1 degenerate to pairwise). Other schedules
	// ignore it.
	Window int
	// NodeSize overrides the ranks-per-node grouping for CommHier
	// (0 = the engine's machine model topology). Other schedules ignore it.
	NodeSize int
}

// DefaultWindow is the in-flight peer-pair cap CommWindowed uses when
// Exchange.Window is zero.
const DefaultWindow = 4

// ExchangeSetter is optionally implemented by communicators whose
// all-to-all schedule can be configured. SetExchange applies to
// collectives posted afterwards; in-flight requests keep the schedule
// they were posted with. Every rank of a world must use the same
// Exchange for matching collectives (SPMD, like every other argument).
type ExchangeSetter interface {
	SetExchange(Exchange)
}

// SetExchange configures c's all-to-all schedule when the engine supports
// it and reports whether it did. Engines without an ExchangeSetter (the
// single-rank self communicator, for instance) are always equivalent to
// pairwise, so callers can ignore the return value.
func SetExchange(c Comm, ex Exchange) bool {
	if s, ok := c.(ExchangeSetter); ok {
		s.SetExchange(ex)
		return true
	}
	return false
}

// Comm is one rank's communicator. Counts are in complex128 elements
// (16 bytes each on the wire). Send/recv blocks are laid out contiguously
// in rank order: rank r's block starts at the prefix sum of counts[0:r].
type Comm interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks.
	Size() int
	// Now returns the engine clock in nanoseconds (virtual time for the
	// sim engine, wall time since world start for the mem engine).
	Now() int64
	// Barrier blocks until every rank reaches it.
	Barrier()
	// Alltoallv performs a blocking all-to-all: block r of send goes to
	// rank r; block s of recv is filled from rank s.
	Alltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int)
	// Ialltoallv starts a non-blocking all-to-all and returns immediately.
	// The send buffer must not be modified and the recv buffer must not be
	// read until the request completes.
	//
	// Counts-aliasing contract: both count slices are consumed synchronously
	// — the engine must capture everything it needs from sendCounts and
	// recvCounts before returning, so the caller is free to overwrite or
	// reuse the slices immediately after the post, while the request is
	// still in flight. (The mem engine copies what it keeps; the sim engine
	// derives all message sizes at post time.) Only the data buffers stay
	// borrowed until completion.
	//
	// The returned handle is the caller's until a Wait consumes it.
	Ialltoallv(send []complex128, sendCounts []int, recv []complex128, recvCounts []int) Request
	// Test models one MPI_Test call: it progresses pending communication
	// and reports whether all the given requests (nil entries ignored)
	// have completed. Unlike MPI_Test it frees nothing, complete or not:
	// the handles stay the caller's until a Wait.
	Test(reqs ...Request) bool
	// Wait blocks until all the given requests have completed and then
	// consumes them, as MPI_Wait frees its requests: the engine may hand a
	// consumed handle's state to a later post, so the handle must not be
	// passed to Test or Wait again (a second Wait may panic).
	Wait(reqs ...Request)
}

// DeadlineWaiter is optionally implemented by engines whose Wait can give
// up after a configured soft deadline. WaitDeadline blocks like Wait but
// returns a diagnostic error (naming the missing ranks/collectives) when
// the deadline passes first. Under a configured deadline it consumes
// nothing, returning nil or not: the requests stay valid, a later Wait or
// WaitDeadline may still complete them, and a Wait consumes them. Engines
// without a configured deadline behave exactly like Wait, consuming the
// requests, and return nil. The overlapped FFT pipeline uses this to
// downgrade to its blocking path instead of hanging when the transport
// misbehaves.
type DeadlineWaiter interface {
	WaitDeadline(reqs ...Request) error
}

// Health is a snapshot of an engine's transport-recovery counters,
// aggregated over the whole world.
type Health struct {
	Sent      int64 // messages handed to the transport
	Delivered int64 // messages accepted into a mailbox (post-checksum, post-dedup)

	DropsInjected       int64 // delivery attempts lost by the fault plan
	CorruptionsInjected int64 // payloads bit-flipped by the fault plan
	DuplicatesInjected  int64 // extra deliveries injected by the fault plan
	Retransmits         int64 // sender timeout-driven resends
	Dedups              int64 // duplicate deliveries discarded by the receiver
	CorruptionsDetected int64 // deliveries rejected by checksum
	Acks                int64 // envelopes retired by acknowledgement
	Backoffs            int64 // retransmit timers re-armed with exponential backoff
}

// HealthReporter is optionally implemented by engines that track transport
// recovery activity.
type HealthReporter interface {
	TransportHealth() Health
}

// Elem16 is the wire size of one element in bytes.
const Elem16 = 16

// TotalCount sums a counts vector.
func TotalCount(counts []int) int {
	n := 0
	for _, c := range counts {
		n += c
	}
	return n
}
