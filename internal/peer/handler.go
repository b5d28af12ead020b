package peer

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
)

// Source is the local cache as the peer protocol sees it; implemented
// by internal/server over its content-addressed compression cache.
type Source interface {
	// Payload returns the marshalled compressed bytes cached under
	// digest, or false if the entry is not held locally.
	Payload(digest string) ([]byte, bool)
	// Accept stores a payload replicated from a peer. Implementations
	// must treat it as untrusted: structurally validated on arrival and
	// verified against the requested program before it is ever served
	// to a client.
	Accept(digest string, payload []byte) error
	// Missing filters digests down to those not held locally — the
	// subset this instance wants pushed during anti-entropy.
	Missing(digests []string) []string
}

// maxOfferDigests bounds one anti-entropy offer request.
const maxOfferDigests = 4096

type offerRequest struct {
	Digests []string `json:"digests"`
}

type offerResponse struct {
	Want []string `json:"want"`
}

// Handler serves the peer protocol over a Source. The owning server
// mounts its methods (they are plain http.HandlerFuncs, so they compose
// with whatever instrumentation the server already applies):
//
//	GET  /internal/v1/cache/{digest}  -> payload + X-Cpackd-Sum
//	PUT  /internal/v1/cache/{digest}  <- replicated payload
//	POST /internal/v1/cache/offer     <- {"digests":[...]} -> {"want":[...]}
type Handler struct {
	src Source
	log *slog.Logger
}

// NewHandler builds a Handler over src (nil logger = slog.Default()).
func NewHandler(src Source, logger *slog.Logger) *Handler {
	if logger == nil {
		logger = slog.Default()
	}
	return &Handler{src: src, log: logger}
}

// Get serves GET /internal/v1/cache/{digest}: the raw payload with its
// SHA-256 in the sum header, or 404.
func (h *Handler) Get(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		http.Error(w, "bad digest", http.StatusBadRequest)
		return
	}
	payload, ok := h.src.Payload(digest)
	if !ok {
		http.Error(w, "not cached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(SumHeader, payloadSum(payload))
	w.Write(payload)
}

// Put serves PUT /internal/v1/cache/{digest}: a replication push. The
// body must match the sum header byte for byte and parse as a
// compressed program (Accept checks); it is still quarantined as
// unverified until a local request proves it decompresses to the
// program the digest names.
func (h *Handler) Put(w http.ResponseWriter, r *http.Request) {
	digest := r.PathValue("digest")
	if !validDigest(digest) {
		http.Error(w, "bad digest", http.StatusBadRequest)
		return
	}
	payload, err := io.ReadAll(io.LimitReader(r.Body, maxPayloadBytes+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(payload) > maxPayloadBytes {
		http.Error(w, "payload too large", http.StatusRequestEntityTooLarge)
		return
	}
	if r.Header.Get(SumHeader) != payloadSum(payload) {
		http.Error(w, "payload checksum mismatch", http.StatusBadRequest)
		return
	}
	if err := h.src.Accept(digest, payload); err != nil {
		h.log.Warn("rejected replicated payload", "digest", digest, "err", err)
		http.Error(w, "rejected: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Offer serves POST /internal/v1/cache/offer: given a peer's digest
// list, answer with the subset this instance is missing and wants
// pushed.
func (h *Handler) Offer(w http.ResponseWriter, r *http.Request) {
	var req offerRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "malformed offer: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Digests) > maxOfferDigests {
		http.Error(w, "too many digests", http.StatusBadRequest)
		return
	}
	valid := req.Digests[:0]
	for _, d := range req.Digests {
		if validDigest(d) {
			valid = append(valid, d)
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(offerResponse{Want: h.src.Missing(valid)})
}

// validDigest reports whether s is a well-formed cache key: 64
// lowercase hex characters (an SHA-256).
func validDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
