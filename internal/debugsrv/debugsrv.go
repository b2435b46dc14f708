// Package debugsrv is the operator side door every Pingmesh binary
// exposes behind -debug-addr: pprof profiles, the in-process trace dump,
// the pipeline freshness verdict, and the Prometheus metric exposition,
// all on one loopback-friendly HTTP listener that is separate from the
// service's data-plane handler. It exists because Pingmesh watches the
// network for everyone else — this server is how operators watch
// Pingmesh itself (§3.5).
package debugsrv

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"pingmesh/internal/metrics"
	"pingmesh/internal/telemetry"
	"pingmesh/internal/trace"
)

// Config selects what the debug server exposes. All fields are optional:
// a zero Config still serves pprof and the index.
type Config struct {
	// Tracer backs /debug/trace and /health. Nil disables both with an
	// explanatory JSON body rather than a blank 404.
	Tracer *trace.Tracer
	// Metrics backs /metrics. Nil disables the endpoint.
	Metrics *metrics.Exposition
	// Series backs /telemetry: the fleet telemetry collector's rollup time
	// series (Collector.Store). Nil disables the endpoint.
	Series *telemetry.Store
}

// Handler returns the debug mux:
//
//	GET /              endpoint index (JSON)
//	GET /debug/pprof/  net/http/pprof profiles
//	GET /debug/trace   tracer span dump; ?trace=<hex id> for one trace
//	GET /health        freshness verdict: 200 ok/waiting, 503 degraded
//	GET /metrics       Prometheus text exposition
//	GET /telemetry     series keys; ?key=<k> for points, &tier=hourly
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) { ServeTrace(cfg.Tracer, w, r) })
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) { ServeHealth(cfg.Tracer, w, r) })
	if cfg.Metrics != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			cfg.Metrics.WriteTo(w)
		})
	}
	if cfg.Series != nil {
		mux.HandleFunc("/telemetry", func(w http.ResponseWriter, r *http.Request) { serveTelemetry(cfg, w, r) })
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		endpoints := []string{"/debug/pprof/", "/debug/trace", "/health"}
		if cfg.Metrics != nil {
			endpoints = append(endpoints, "/metrics")
		}
		if cfg.Series != nil {
			endpoints = append(endpoints, "/telemetry")
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"service":   "pingmesh-debug",
			"endpoints": endpoints,
			"tracing":   cfg.Tracer != nil,
		})
	})
	return mux
}

// ServeTrace answers GET /debug/trace with the tracer's full span dump, or
// with ?trace=<hex id> just that trace's spans across all components, ordered
// by start time. It is the one implementation behind every port that serves
// the path (the portal mounts it too).
func ServeTrace(tr *trace.Tracer, w http.ResponseWriter, r *http.Request) {
	if tr == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "tracing disabled"})
		return
	}
	if idHex := r.URL.Query().Get("trace"); idHex != "" {
		id, err := strconv.ParseUint(idHex, 16, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad trace id (want hex)"})
			return
		}
		writeJSON(w, http.StatusOK, tr.TraceSpans(trace.TraceID(id)))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	tr.WriteJSON(w)
}

// ServeHealth answers GET /health with the pipeline freshness verdict against
// the §3.5 budget: 200 for "ok"/"waiting", 503 for "degraded". The stage list
// is the tracer's — its marks plus whatever the pipeline has it watch — so
// two ports of one process cannot disagree.
func ServeHealth(tr *trace.Tracer, w http.ResponseWriter, r *http.Request) {
	if tr == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "note": "tracing disabled"})
		return
	}
	h := tr.Freshness().Check()
	code := http.StatusOK
	if h.Status == "degraded" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// serveTelemetry dumps the binary's own series: a bare GET lists keys,
// ?key= returns that key's raw points, &tier=hourly its downsampled tier.
func serveTelemetry(cfg Config, w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeJSON(w, http.StatusOK, map[string]any{"keys": cfg.Series.Keys()})
		return
	}
	var pts []telemetry.Point
	if r.URL.Query().Get("tier") == "hourly" {
		pts = cfg.Series.Hourly(key)
	} else {
		pts = cfg.Series.Series(key)
	}
	if pts == nil {
		if _, ok := cfg.Series.Latest(key); !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown key"})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"key": key, "points": pts})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Server is a running debug listener.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the debug server on addr ("" is rejected by net.Listen;
// callers gate on the flag being set). It returns once the listener is
// bound; requests are served on a background goroutine.
func Serve(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(cfg)}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down.
func (s *Server) Close() error { return s.srv.Close() }
