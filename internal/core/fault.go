package core

// Fault selects a deliberately broken variant of the two-bit protocol. The
// variants exist to mutation-test the detection machinery — the atomicity
// checkers and the adversarial schedule explorer (internal/explore) must
// catch each of them within a bounded schedule budget. The zero value is the
// correct protocol.
type Fault uint8

const (
	// FaultNone runs Figure 1 unmodified.
	FaultNone Fault = iota
	// FaultAckBeforeQuorum completes a write after n-t-1 matching w_sync
	// entries instead of n-t (line 3). The write can then terminate while
	// only a sub-quorum holds the new value, so a subsequent read served
	// entirely by the complement returns the overwritten value — a Claim 2
	// violation under schedules that slow the writer's side of the network.
	FaultAckBeforeQuorum
	// FaultSkipProceedWait answers READ() with PROCEED() immediately,
	// skipping the line-20 guard w_sync[from] >= sn. The guard is what
	// forces a reader to be as current as each responder before its line-7
	// quorum fills; without it a stale reader can terminate with an old
	// value after the corresponding write completed.
	FaultSkipProceedWait
)

// WithFault builds the broken protocol variant f. Mutation testing only —
// never enable a non-zero Fault outside checker/explorer self-tests.
func WithFault(f Fault) Option { return func(o *options) { o.fault = f } }
