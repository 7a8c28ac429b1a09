package mathx

// HelpersStarted is the number of helper goroutines ForEach has started.
func HelpersStarted() int64 { return started.Load() }

// WaitIdle waits until no ForEach helper lingers.
func WaitIdle() { waitIdle() }
