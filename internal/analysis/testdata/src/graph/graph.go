// Package graph is the call-graph layer's fixture: direct calls,
// method calls, goroutine closures and method values.
package graph

type client struct{ n int }

func (c *client) do()       { c.n++ }
func (c *client) doMutate() { c.n++ }

func kernel(a, b int) int { return a + b }

func helper(c *client) { c.do() }

func handler(c *client) {
	go func() { helper(c) }()
}

func viaValue(c *client) {
	retry(c.doMutate)
}

func retry(f func()) { f() }

func unrelated() int { return kernel(1, 2) }
