package solve

import (
	"encoding/json"
	"fmt"
)

// Params is the wire representation of a solve option set: every
// functional option that can be stated as plain data, under stable JSON
// names, so network layers (the server package, config files, test
// fixtures) can carry solver configuration without holding closures.
// The zero value maps to no options at all — method defaults apply.
//
// Pointer fields distinguish "absent" from a meaningful zero:
// Lookahead 0 is a valid vrcg setting, so only a non-nil pointer
// overrides the default. Options that need live objects (WithPool,
// WithPreconditioner, WithContext, WithMonitor, WithX0) have no Params
// counterpart; callers append them alongside Params.Options(). Neither
// has the simulated machine (WithProcessors, WithMachineConfig): its
// Clocks and Machine are library and CLI output that no wire response
// carries, so a request naming "processors" is refused as an unknown
// field.
type Params struct {
	// Tol is the relative residual tolerance (WithTol). 0 keeps the
	// method default.
	Tol float64 `json:"tol,omitempty"`
	// MaxIter bounds the iteration count (WithMaxIter). 0 keeps the
	// method default.
	MaxIter int `json:"max_iter,omitempty"`
	// History records per-iteration residual norms (WithHistory).
	History bool `json:"history,omitempty"`

	// Lookahead is the vrcg/parcg look-ahead depth k (WithLookahead).
	Lookahead *int `json:"lookahead,omitempty"`
	// ReanchorEvery is the vrcg stabilization interval
	// (WithReanchorEvery).
	ReanchorEvery *int `json:"reanchor_every,omitempty"`
	// WindowOnlyReanchor restricts vrcg re-anchoring to the scalar
	// windows (WithWindowOnlyReanchor).
	WindowOnlyReanchor bool `json:"window_only_reanchor,omitempty"`
	// ValidateEvery enables vrcg drift checkpoints (WithValidateEvery).
	ValidateEvery int `json:"validate_every,omitempty"`
	// ResidualReplaceEvery enables vrcg residual replacement
	// (WithResidualReplaceEvery).
	ResidualReplaceEvery int `json:"residual_replace_every,omitempty"`
	// BlockSize is the sstep block size s (WithBlockSize).
	BlockSize *int `json:"block_size,omitempty"`
	// Restart is the gmres restart length m (WithRestart); nil keeps
	// the default min(30, n).
	Restart *int `json:"restart,omitempty"`

	// Blocking evaluates the parcg / parcg-pipe reductions at issue
	// (WithBlocking).
	Blocking bool `json:"blocking,omitempty"`
	// SpectralScaling toggles parcg Gershgorin scaling
	// (WithSpectralScaling); nil keeps the default (on).
	SpectralScaling *bool `json:"spectral_scaling,omitempty"`

	// BatchWorkers pins the Batch/SolveMany fan-out width
	// (WithBatchWorkers).
	BatchWorkers int `json:"batch_workers,omitempty"`
}

// Options maps the parameter set onto the equivalent functional
// options, in a fixed order. Absent fields contribute nothing, so the
// result composes with further options appended after it.
func (p *Params) Options() []Option {
	if p == nil {
		return nil
	}
	var opts []Option
	if p.Tol != 0 {
		opts = append(opts, WithTol(p.Tol))
	}
	if p.MaxIter != 0 {
		opts = append(opts, WithMaxIter(p.MaxIter))
	}
	if p.History {
		opts = append(opts, WithHistory(true))
	}
	if p.Lookahead != nil {
		opts = append(opts, WithLookahead(*p.Lookahead))
	}
	if p.ReanchorEvery != nil {
		opts = append(opts, WithReanchorEvery(*p.ReanchorEvery))
	}
	if p.WindowOnlyReanchor {
		opts = append(opts, WithWindowOnlyReanchor(true))
	}
	if p.ValidateEvery != 0 {
		opts = append(opts, WithValidateEvery(p.ValidateEvery))
	}
	if p.ResidualReplaceEvery != 0 {
		opts = append(opts, WithResidualReplaceEvery(p.ResidualReplaceEvery))
	}
	if p.BlockSize != nil {
		opts = append(opts, WithBlockSize(*p.BlockSize))
	}
	if p.Restart != nil {
		opts = append(opts, WithRestart(*p.Restart))
	}
	if p.Blocking {
		opts = append(opts, WithBlocking(true))
	}
	if p.SpectralScaling != nil {
		opts = append(opts, WithSpectralScaling(*p.SpectralScaling))
	}
	if p.BatchWorkers != 0 {
		opts = append(opts, WithBatchWorkers(p.BatchWorkers))
	}
	return opts
}

// Validate rejects parameter values no method accepts, so wire layers
// can fail a request before burning a solve on it. Errors wrap
// ErrBadOption.
func (p *Params) Validate() error {
	if p == nil {
		return nil
	}
	switch {
	case p.Tol < 0:
		return fmt.Errorf("solve: params: tol must be >= 0, got %g: %w", p.Tol, ErrBadOption)
	case p.MaxIter < 0:
		return fmt.Errorf("solve: params: max_iter must be >= 0, got %d: %w", p.MaxIter, ErrBadOption)
	case p.Lookahead != nil && *p.Lookahead < 0:
		return fmt.Errorf("solve: params: lookahead must be >= 0, got %d: %w", *p.Lookahead, ErrBadOption)
	case p.BlockSize != nil && *p.BlockSize < 1:
		return fmt.Errorf("solve: params: block_size must be >= 1, got %d: %w", *p.BlockSize, ErrBadOption)
	case p.Restart != nil && *p.Restart < 1:
		return fmt.Errorf("solve: params: restart must be >= 1, got %d: %w", *p.Restart, ErrBadOption)
	case p.BatchWorkers < 0:
		return fmt.Errorf("solve: params: batch_workers must be >= 0, got %d: %w", p.BatchWorkers, ErrBadOption)
	}
	return nil
}

// Key returns the canonical JSON encoding of the parameter set —
// identical configurations yield identical keys, so caches (session
// pools in particular) can use it to recognize equivalent requests.
func (p *Params) Key() string {
	if p == nil {
		return "{}"
	}
	b, err := json.Marshal(p)
	if err != nil {
		// Params is a closed struct of marshalable fields; this cannot
		// happen short of memory corruption.
		panic(fmt.Sprintf("solve: params key: %v", err))
	}
	return string(b)
}
