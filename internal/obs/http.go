package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// handler returns the observability endpoint:
//
//	/metrics       Prometheus text exposition of the registry
//	/state         JSON snapshot of every registered state provider
//	/healthz       liveness: run ID and uptime
//	/debug/pprof/  net/http/pprof profiles
//
// The nil runtime still serves (empty metrics, ok health), so callers can
// wire the handler unconditionally.
func (rt *Runtime) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rt.Registry().WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, healthResponse{
			Status:  "ok",
			Run:     rt.RunIDString(),
			UptimeS: rt.uptime().Seconds(),
		})
	})
	mux.HandleFunc("/state", func(w http.ResponseWriter, _ *http.Request) {
		resp := stateResponse{
			Run:     rt.RunIDString(),
			UptimeS: rt.uptime().Seconds(),
			State:   map[string]any{},
		}
		if rt != nil {
			resp.State = rt.stateSnapshot()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// healthResponse is the /healthz body. Field names are part of the
// endpoint's schema; tests pin them.
type healthResponse struct {
	Status  string  `json:"status"`
	Run     string  `json:"run"`
	UptimeS float64 `json:"uptime_s"`
}

// stateResponse is the /state envelope. Field names are part of the
// endpoint's schema; tests pin them.
type stateResponse struct {
	Run     string         `json:"run"`
	UptimeS float64        `json:"uptime_s"`
	State   map[string]any `json:"state"`
}

// writeJSON renders a response as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Server is a running observability endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the handler on addr (e.g. ":9190", or "127.0.0.1:0" to pick
// a free port) and returns immediately; the server runs until Close.
func (rt *Runtime) Serve(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: rt.handler(), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.srv.Close() }
