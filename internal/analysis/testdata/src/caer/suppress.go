package caer

// finishTick is a hot root; the snapshot call below would be a hotpath
// finding but carries a documented suppression, which the driver honours on
// the comment's own line and the line below.
//
//caer:hot
func (e *Engine) finishTick() {
	e.notes = e.notes[:0]
	//caer:allow hotpath one-time diagnostic copy, not per-period
	samples := e.slot.Samples()
	_ = samples
}
