// Package serve hosts many concurrent simulations behind an HTTP/JSON
// control plane: the engine of `baatsim serve`.
//
// Each run is a Simulator owned by a dedicated goroutine and driven
// through a lifecycle state machine (created → running ⇄ paused → done |
// failed). The control plane creates, starts, pauses, resumes, steps,
// mutates, forks, and deletes runs; streams per-day results over SSE; and
// mounts each run's telemetry recorder (/metrics, /events) as per-run
// routes. docs/SERVICE.md is the API reference.
//
// Everything is deterministic: run IDs are a counter, weather sequences
// are fixed at creation from named rng streams, checkpoints are stored at
// day boundaries with the spec that produced them, and forking a run at
// day N yields a child whose day-N state is byte-identical to the
// parent's checkpoint — properties the end-to-end test suite pins down.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"path"
	"strconv"
	"sync"
	"time"
)

// shutdownGrace bounds how long Close waits for in-flight HTTP exchanges
// (including SSE streams, which unblock as soon as their runs stop).
const shutdownGrace = 10 * time.Second

// maxBodyBytes bounds a control-plane request body; specs and mutations
// are small documents.
const maxBodyBytes = 1 << 20

// readHeaderTimeout bounds how long a connection may take to deliver its
// request header, so a client that never finishes one cannot pin a socket
// and a goroutine forever. There is deliberately no write timeout: SSE
// streams stay open for the life of a run.
const readHeaderTimeout = 5 * time.Second

// Server is the simulation service: a run registry plus the HTTP mux that
// drives it. Zero or one listener: tests mount Handler() under httptest,
// the daemon calls Start.
type Server struct {
	reg *registry
	mux *http.ServeMux

	mu      sync.Mutex
	httpSrv *http.Server

	closeOnce sync.Once
	closeErr  error
}

// NewServer builds a service with no runs and no listener.
func NewServer() *Server {
	s := &Server{reg: newRegistry(), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("POST /runs", s.handleCreate)
	s.mux.HandleFunc("GET /runs", s.handleList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /runs/{id}/start", s.runAction((*Run).start))
	s.mux.HandleFunc("POST /runs/{id}/pause", s.runAction((*Run).pause))
	s.mux.HandleFunc("POST /runs/{id}/resume", s.runAction((*Run).resume))
	s.mux.HandleFunc("POST /runs/{id}/step", s.handleStep)
	s.mux.HandleFunc("POST /runs/{id}/mutate", s.handleMutate)
	s.mux.HandleFunc("POST /runs/{id}/fork", s.handleFork)
	s.mux.HandleFunc("GET /runs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /runs/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /runs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /runs/{id}/metrics", s.handleTelemetry)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleTelemetry)
	return s
}

// Handler exposes the control plane for mounting under a test server or an
// outer mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (":0" picks a free port) and serves in the
// background, returning the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// The listener died underneath a healthy server; runs stay
			// intact, but nothing reaches them. Nothing to do here beyond
			// not crashing — Close tears the rest down.
			_ = err
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops every run (their goroutines exit), then shuts the listener
// down gracefully. Idempotent. Stopping runs first is what lets open SSE
// streams finish: their final drain triggers on the runs' loopDone.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.reg.closeAll()
		s.mu.Lock()
		srv := s.httpSrv
		s.mu.Unlock()
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				s.closeErr = srv.Close()
			}
		}
	})
	return s.closeErr
}

// writeJSON marshals v and writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeErr(w, errf(http.StatusInternalServerError, CodeInternal, "encode response: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// writeErr renders any error as the structured {"error": {code, message}}
// document; non-API errors become internal 500s.
func writeErr(w http.ResponseWriter, err error) {
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		apiErr = errf(http.StatusInternalServerError, CodeInternal, "%v", err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(apiErr.Status)
	_ = json.NewEncoder(w).Encode(map[string]*Error{"error": apiErr})
}

// decodeBody strictly decodes a JSON request body into v: unknown fields
// and trailing garbage are errors, so client typos surface as 400s instead
// of silently-defaulted knobs.
func decodeBody(req *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errf(http.StatusBadRequest, CodeBadRequest, "invalid request body: %v", err)
	}
	if dec.More() {
		return errf(http.StatusBadRequest, CodeBadRequest, "invalid request body: trailing data")
	}
	return nil
}

// intQuery parses a required integer query parameter.
func intQuery(req *http.Request, name string) (int, error) {
	raw := req.URL.Query().Get(name)
	if raw == "" {
		return 0, errf(http.StatusBadRequest, CodeBadRequest, "missing required query parameter %q", name)
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, errf(http.StatusBadRequest, CodeBadRequest, "query parameter %q: %v", name, err)
	}
	return n, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleCreate(w http.ResponseWriter, req *http.Request) {
	var sp RunSpec
	if err := decodeBody(req, &sp); err != nil {
		writeErr(w, err)
		return
	}
	norm, err := sp.admit()
	if err != nil {
		writeErr(w, errf(http.StatusBadRequest, CodeBadRequest, "invalid run spec: %v", err))
		return
	}
	r, err := newRun(s.reg.allocID(), norm)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.put(r); err != nil {
		r.stop()
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, r.info())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	runs := s.reg.list()
	infos := make([]RunInfo, len(runs))
	for i, r := range runs {
		infos[i] = r.info()
	}
	writeJSON(w, http.StatusOK, map[string][]RunInfo{"runs": infos})
}

func (s *Server) handleInfo(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, r.info())
}

func (s *Server) handleDelete(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.remove(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	r.stop()
	w.WriteHeader(http.StatusNoContent)
}

// runAction adapts the zero-argument lifecycle transitions
// (start/pause/resume) into handlers that answer with the fresh status.
func (s *Server) runAction(fn func(*Run) error) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r, err := s.reg.get(req.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		if err := fn(r); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, r.info())
	}
}

func (s *Server) handleStep(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	day, err := intQuery(req, "to")
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := r.stepTo(day); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, r.info())
}

func (s *Server) handleMutate(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	var m Mutation
	if err := decodeBody(req, &m); err != nil {
		writeErr(w, err)
		return
	}
	applied, noops, err := r.mutate(m)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": applied,
		"noop":    noops,
		"run":     r.info(),
	})
}

func (s *Server) handleFork(w http.ResponseWriter, req *http.Request) {
	parent, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	day, err := intQuery(req, "day")
	if err != nil {
		writeErr(w, err)
		return
	}
	ck, err := parent.forkRecord(day)
	if err != nil {
		writeErr(w, err)
		return
	}
	child, err := newForkedRun(s.reg.allocID(), parent.id, day, ck)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.reg.put(child); err != nil {
		child.stop()
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, child.info())
}

func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, r.result())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	day, err := intQuery(req, "day")
	if err != nil {
		writeErr(w, err)
		return
	}
	data, err := r.checkpointBytes(day)
	if err != nil {
		writeErr(w, err)
		return
	}
	// The envelope is served verbatim: these are the exact bytes a fork
	// resumes from, and the exact bytes the equivalence tests compare.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleTelemetry rewrites /runs/{id}/metrics|events onto the run's own
// telemetry recorder, so each hosted simulation exposes the same observable
// surface a standalone baatsim process does.
func (s *Server) handleTelemetry(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	rewritten := req.Clone(req.Context())
	rewritten.URL = &url.URL{
		Path:     "/" + path.Base(req.URL.Path),
		RawQuery: req.URL.RawQuery,
	}
	r.telemetry.ServeHTTP(w, rewritten)
}

// handleStream serves the run's event stream as SSE. The stream is
// lossless: day events replay from the beginning of the run, so a late
// subscriber sees every day ever completed, then follows live. Event
// vocabulary (docs/SERVICE.md): "day" per completed day, "state" on each
// lifecycle change, then exactly one terminal "done" or "error" — after
// which the stream closes. Deleting the run (or shutting the server down)
// ends the stream after a final drain.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, err := s.reg.get(req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, errf(http.StatusInternalServerError, CodeInternal, "response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	wake, cancel := r.subscribe()
	defer cancel()

	emit := func(event string, v any) bool {
		b, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	sent := 0
	lastState := State("")
	drain := func() (done bool) {
		ss := r.streamSnapshot(sent)
		for _, d := range ss.days {
			sent++
			if !emit("day", d) {
				return true
			}
		}
		if ss.state != lastState {
			lastState = ss.state
			if !emit("state", map[string]any{"state": ss.state, "day": ss.day}) {
				return true
			}
		}
		switch ss.state {
		case StateDone:
			emit("done", r.result())
			return true
		case StateFailed:
			emit("error", map[string]string{"message": ss.errMsg})
			return true
		}
		return false
	}
	for {
		if drain() {
			return
		}
		select {
		case <-wake:
		case <-req.Context().Done():
			return
		case <-r.loopDone:
			// Run stopped (deleted or server shutdown) without reaching a
			// terminal state: flush what exists, then close the stream.
			drain()
			return
		}
	}
}
