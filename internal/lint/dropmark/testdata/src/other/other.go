// Package other is the dropmark negative fixture: no Rows/interrupted
// idiom, so identical drop shapes are out of scope.
package other

import "context"

type Batch []uint64

func drop(ctx context.Context, out chan<- Batch, b Batch) {
	select {
	case out <- b:
	case <-ctx.Done():
	}
}
