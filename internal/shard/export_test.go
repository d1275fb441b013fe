package shard

// SetAfterFold makes every rebuild of l call f once its fold has built the
// new base, off the writer lock and before the swap takes it, so a test
// can land writes during a fold.
func SetAfterFold(l *Live, f func()) { l.afterFold = f }
