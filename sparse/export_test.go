package sparse

// IsDense and HasTranspose let the external tests see which path a
// Rect's products take: the dense kernels, or the CSR loop over rows and
// a cached explicit transpose.
func (m *Rect) IsDense() bool { return m.dense }

func (m *Rect) HasTranspose() bool { return m.tr.Load() != nil }
