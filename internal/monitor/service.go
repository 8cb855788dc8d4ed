package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"samrpart/internal/capacity"
)

// Response is the wire format of one monitoring query: the forecast
// measurements per node and the relative capacities derived from them.
type Response struct {
	Time         string                 `json:"time"`
	Measurements []capacity.Measurement `json:"measurements"`
	Capacities   []float64              `json:"capacities"`
	Error        string                 `json:"error,omitempty"`
}

// Service exposes a Monitor over a line-based TCP protocol: a client sends
// "SENSE\n" and receives one JSON Response per line. This is the repo's
// NWS-daemon analogue; cmd/nwsmon wraps it.
type Service struct {
	mon     *Monitor
	weights capacity.Weights
	clock   func() float64
}

// NewService wraps a monitor. clock supplies the sensing timestamps (e.g.
// seconds since service start); weights configure the capacity metric.
func NewService(mon *Monitor, weights capacity.Weights, clock func() float64) *Service {
	return &Service{mon: mon, weights: weights, clock: clock}
}

// Serve accepts and handles connections until the listener fails or is
// closed. It blocks.
func (s *Service) Serve(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.handle(conn)
	}
}

func (s *Service) handle(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		cmd := sc.Text()
		if cmd != "SENSE" {
			enc.Encode(Response{Error: fmt.Sprintf("unknown command %q", cmd)})
			continue
		}
		ms := s.mon.Sense(s.clock())
		caps, err := capacity.Relative(ms, s.weights)
		resp := Response{
			Time:         time.Now().Format(time.RFC3339),
			Measurements: ms,
			Capacities:   caps,
		}
		if err != nil {
			resp = Response{Error: err.Error()}
		}
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

// Query performs one SENSE round trip against a running Service.
func Query(addr string, timeout time.Duration) (*Response, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := fmt.Fprintln(conn, "SENSE"); err != nil {
		return nil, err
	}
	var resp Response
	if err := json.NewDecoder(bufio.NewReader(conn)).Decode(&resp); err != nil {
		return nil, fmt.Errorf("monitor: bad response: %w", err)
	}
	if resp.Error != "" {
		return nil, fmt.Errorf("monitor: remote error: %s", resp.Error)
	}
	return &resp, nil
}
