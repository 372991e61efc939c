package transport

import "fmt"

// MeshStats are one mesh's (or, via Add, a whole cluster's) transport
// counters. FramesSent vs ConnWrites is the batching figure of merit: the
// pipelined sender drains every queued frame per wakeup into one
// conn.Write, so ConnWrites counts syscalls and FramesSent/ConnWrites is
// the frames-per-syscall ratio (1.0 = the per-frame baseline).
type MeshStats struct {
	// FramesSent counts protocol frames handed to the kernel (frames
	// dropped at a full queue are counted in FramesDropped instead).
	FramesSent int64 `json:"frames_sent"`
	// ConnWrites counts conn.Write calls (syscalls on the send path).
	ConnWrites int64 `json:"conn_writes"`
	// BytesSent counts payload bytes written, length prefixes included.
	BytesSent int64 `json:"bytes_sent"`
	// MaxBatch is the largest number of frames one write carried.
	MaxBatch int64 `json:"max_batch"`
	// FramesDropped counts frames discarded rather than written: sent to
	// a full queue (a dead or stalled peer), voided by a purge, or lost
	// with a broken connection.
	FramesDropped int64 `json:"frames_dropped"`
	// Redials counts outbound connection (re-)establishments after the
	// initial dial.
	Redials int64 `json:"redials"`
	// Reconnects counts inbound connections from a sender that had
	// already connected once — the receive-side view of peer churn
	// (a crashed-and-restarted peer, or a dropped connection redialed).
	Reconnects int64 `json:"reconnects"`
	// PeerRestarts counts runs of the restart rule: a handshake, in either
	// direction, that showed a peer at a newer incarnation than the one
	// held, or made first contact on a link that had already lost frames.
	PeerRestarts int64 `json:"peer_restarts"`
	// FramesReceived counts inbound frames decoded and delivered.
	FramesReceived int64 `json:"frames_received"`
	// FramesFenced counts inbound frames dropped because the connection
	// they arrived on handshook with an incarnation the peer has since
	// replaced.
	FramesFenced int64 `json:"frames_fenced"`
	// DecodeErrors counts inbound frames the codec rejected — nonzero
	// means frame interleaving or corruption on some connection.
	DecodeErrors int64 `json:"decode_errors"`
}

// Add accumulates o into s (MaxBatch takes the maximum).
func (s *MeshStats) Add(o MeshStats) {
	s.FramesSent += o.FramesSent
	s.ConnWrites += o.ConnWrites
	s.BytesSent += o.BytesSent
	if o.MaxBatch > s.MaxBatch {
		s.MaxBatch = o.MaxBatch
	}
	s.FramesDropped += o.FramesDropped
	s.Redials += o.Redials
	s.Reconnects += o.Reconnects
	s.PeerRestarts += o.PeerRestarts
	s.FramesReceived += o.FramesReceived
	s.FramesFenced += o.FramesFenced
	s.DecodeErrors += o.DecodeErrors
}

// FramesPerWrite returns FramesSent/ConnWrites (0 with no writes) — the
// batching ratio.
func (s MeshStats) FramesPerWrite() float64 {
	if s.ConnWrites == 0 {
		return 0
	}
	return float64(s.FramesSent) / float64(s.ConnWrites)
}

// String renders the counters on one line.
func (s MeshStats) String() string {
	return fmt.Sprintf(
		"frames=%d writes=%d (%.2f frames/write, max batch %d) bytes=%d dropped=%d redials=%d reconnects=%d peer_restarts=%d recv=%d fenced=%d decode_errs=%d",
		s.FramesSent, s.ConnWrites, s.FramesPerWrite(), s.MaxBatch,
		s.BytesSent, s.FramesDropped, s.Redials, s.Reconnects, s.PeerRestarts,
		s.FramesReceived, s.FramesFenced, s.DecodeErrors)
}
