package pfft

import (
	"offt/internal/mpi"
)

// retransmitDowngradeThreshold is how many transport retransmissions
// (world-wide, counted from the start of this rank's overlapped pipeline)
// the pipeline tolerates before it stops trusting the fabric and
// downgrades to the blocking path even though no wait deadline has fired
// yet. Sized well above what the chaos profiles produce on a healthy run
// (tens to hundreds) so it only trips on a persistently failing transport.
const retransmitDowngradeThreshold = 4096

// FaultMonitor decides when an overlapped pipeline must downgrade to the
// blocking path. It uses the engine's optional capabilities: soft wait
// deadlines (mpi.DeadlineWaiter) and transport-recovery counters
// (mpi.HealthReporter). On engines with neither, WaitTile is plain Wait
// and no downgrade ever triggers.
type FaultMonitor struct {
	dw       mpi.DeadlineWaiter
	hr       mpi.HealthReporter
	baseline int64 // Retransmits at pipeline start
	// one is scratch for single-request Wait and WaitDeadline calls:
	// spreading a reusable slice into the variadic avoids a per-call heap
	// allocation, which the steady-state allocation gate would otherwise
	// count.
	one [1]mpi.Request
}

// Init (re-)arms the monitor for one pipeline execution. It is a value
// method target so a reusable Pipeline re-arms without allocating.
func (m *FaultMonitor) Init(c mpi.Comm) {
	m.dw, _ = c.(mpi.DeadlineWaiter)
	m.hr, _ = c.(mpi.HealthReporter)
	m.baseline = 0
	if m.hr != nil {
		m.baseline = m.hr.TransportHealth().Retransmits
	}
}

// WaitTile waits for one tile's collective and reports whether the
// overlapped pipeline may continue. False means downgrade: either the
// transport shows persistent retransmission pressure (checked before
// blocking) or the soft wait deadline passed. In both cases the request
// stays valid — the blocking path finishes it with a plain Wait. True
// means the request is done; the engine has freed it unless a soft
// deadline is configured (see mpi.DeadlineWaiter).
func (m *FaultMonitor) WaitTile(c mpi.Comm, req mpi.Request) bool {
	if m.hr != nil && m.hr.TransportHealth().Retransmits-m.baseline > retransmitDowngradeThreshold {
		return false
	}
	if m.dw == nil {
		m.Wait(c, req)
		return true
	}
	m.one[0] = req
	err := m.dw.WaitDeadline(m.one[:]...)
	m.one[0] = nil
	return err == nil
}

// Wait is plain Wait on one request, without the per-call allocation of
// spreading it into the variadic.
func (m *FaultMonitor) Wait(c mpi.Comm, req mpi.Request) {
	m.one[0] = req
	c.Wait(m.one[:]...)
	m.one[0] = nil
}
