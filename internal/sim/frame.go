package sim

import "github.com/edmac-project/edmac/internal/topology"

// Broadcast is the destination of frames addressed to every neighbour.
const Broadcast topology.NodeID = -1

// FrameKind distinguishes the MAC frame types on the air.
type FrameKind int

const (
	// FrameData carries one application packet.
	FrameData FrameKind = iota + 1
	// FrameAck acknowledges a data frame.
	FrameAck
	// FrameStrobe is an X-MAC preamble strobe (carries the target).
	FrameStrobe
	// FrameStrobeAck is X-MAC's early ACK cutting the strobe train.
	FrameStrobeAck
	// FrameCtrl is an LMAC slot-control section.
	FrameCtrl
	// FramePreamble is a B-MAC full-length wakeup preamble. Unlike every
	// other frame it is a modulated carrier rather than a packet: a
	// receiver waking mid-preamble still detects and "decodes" it, so
	// the medium lets listeners lock onto it mid-flight.
	FramePreamble
)

// String returns the frame kind name.
func (k FrameKind) String() string {
	switch k {
	case FrameData:
		return "data"
	case FrameAck:
		return "ack"
	case FrameStrobe:
		return "strobe"
	case FrameStrobeAck:
		return "strobe-ack"
	case FrameCtrl:
		return "ctrl"
	case FramePreamble:
		return "preamble"
	default:
		return "frame(?)"
	}
}

// Packet is one application sample travelling to the sink.
type Packet struct {
	// Origin is the node that sampled it.
	Origin topology.NodeID
	// Created is the sampling time.
	Created Time
	// delivered marks a packet the sink has already counted, so a
	// protocol-level duplicate — a retry after a lost ACK delivers a
	// second copy — is recorded as a duplicate, not a second delivery.
	// Packets come from an arena that never reuses them (copies of one
	// packet can sit in several queues at once), so the flag is reliable
	// for the whole run.
	delivered bool
}

// Frame is one on-air MAC frame. Frames sent through a Transceiver are
// recycled by the medium once their transmission ends (see FrameHandler
// for the ownership contract).
type Frame struct {
	// pooled guards the recycling contract: the medium panics on any
	// send, upcall or free of a frame that is sitting in the pool. One
	// bool compare per event is cheap insurance against use-after-free.
	pooled bool
	Kind   FrameKind
	// Src and Dst are one-hop addresses; Dst may be Broadcast.
	Src, Dst topology.NodeID
	// Bytes is the MAC-layer size (the radio adds PHY overhead).
	Bytes int
	// Packet is the carried application packet for FrameData, nil
	// otherwise.
	Packet *Packet
	// Announce is the data destination announced by an LMAC control
	// section (Broadcast when the owner has nothing to send).
	Announce topology.NodeID
}
