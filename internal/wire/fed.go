// Federation transport: the Hello/Heartbeat/VoteBatch/IncidentSync ops
// of the internal/fed coordination tier, carried as control frames
// (JSON) like the agent↔controller ops. The Server side delegates to a
// FedBackend (a fed node's coordination state); the Client side is what
// a peer node dials.

package wire

import (
	"errors"
	"fmt"

	"rpingmesh/internal/proto"
)

// Fed op codes.
const (
	opFedHello     = "fed.hello"
	opFedHeartbeat = "fed.heartbeat"
	opFedVotes     = "fed.votes"
	opFedSync      = "fed.sync"
)

// FedBackend is the server-side hook for federation ops — implemented by
// the live daemon's coordination loop around a fed.Replica. The Server
// serializes its calls under one lock, so an implementation needs no
// locking against other connections' fed ops.
type FedBackend interface {
	// FedHello introduces a peer (first contact or rejoin).
	FedHello(h proto.Hello) proto.HelloReply
	// FedHeartbeat folds a peer's liveness/progress beacon.
	FedHeartbeat(hb proto.Heartbeat)
	// FedVotes offers one vote batch; the ack tells the sender whether to
	// drop it from its outbox or keep buffering.
	FedVotes(b proto.VoteBatch) proto.VoteAck
	// FedSync returns committed rounds after sinceSeq for catch-up.
	FedSync(sinceSeq uint64) proto.IncidentSync
}

// SetFedBackend wires federation ops into the server. Call before peers
// connect; a server without one answers fed ops with an error.
func (s *Server) SetFedBackend(fb FedBackend) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fed = fb
}

func (s *Server) dispatchFed(req *request) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fed == nil {
		return response{Error: "no federation backend"}
	}
	switch req.Op {
	case opFedHello:
		if req.Hello == nil {
			return response{Error: "missing hello"}
		}
		r := s.fed.FedHello(*req.Hello)
		return response{OK: true, HelloReply: &r}
	case opFedHeartbeat:
		if req.Heartbeat == nil {
			return response{Error: "missing heartbeat"}
		}
		s.fed.FedHeartbeat(*req.Heartbeat)
		return response{OK: true}
	case opFedVotes:
		if req.Votes == nil {
			return response{Error: "missing votes"}
		}
		ack := s.fed.FedVotes(*req.Votes)
		return response{OK: true, Ack: &ack}
	case opFedSync:
		sync := s.fed.FedSync(req.SinceSeq)
		return response{OK: true, Sync: &sync}
	default:
		return response{Error: fmt.Sprintf("unknown fed op %q", req.Op)}
	}
}

// FedHello introduces this client's node to the peer.
func (c *Client) FedHello(h proto.Hello) (proto.HelloReply, error) {
	resp, err := c.roundTrip(&request{Op: opFedHello, Hello: &h})
	if err != nil {
		return proto.HelloReply{}, err
	}
	if resp.HelloReply == nil {
		return proto.HelloReply{}, errors.New("wire: hello reply missing body")
	}
	return *resp.HelloReply, nil
}

// FedHeartbeat delivers a liveness beacon.
func (c *Client) FedHeartbeat(hb proto.Heartbeat) error {
	_, err := c.roundTrip(&request{Op: opFedHeartbeat, Heartbeat: &hb})
	return err
}

// FedVotes offers a vote batch and returns the receiver's ack.
func (c *Client) FedVotes(b proto.VoteBatch) (proto.VoteAck, error) {
	resp, err := c.roundTrip(&request{Op: opFedVotes, Votes: &b})
	if err != nil {
		return proto.VoteAck{}, err
	}
	if resp.Ack == nil {
		return proto.VoteAck{}, errors.New("wire: vote ack missing body")
	}
	return *resp.Ack, nil
}

// FedSyncSince pulls committed rounds after sinceSeq from the peer.
func (c *Client) FedSyncSince(sinceSeq uint64) (proto.IncidentSync, error) {
	resp, err := c.roundTrip(&request{Op: opFedSync, SinceSeq: sinceSeq})
	if err != nil {
		return proto.IncidentSync{}, err
	}
	if resp.Sync == nil {
		return proto.IncidentSync{}, errors.New("wire: sync reply missing body")
	}
	return *resp.Sync, nil
}
