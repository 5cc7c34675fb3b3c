// Package vtime stands in for the real clock layer's tracked channel, whose
// receives park and whose sends block on a full buffer.
package vtime

import "context"

// Chan is the tracked channel.
type Chan[T any] struct{ ch chan T }

func (c Chan[T]) Send(v T) { c.ch <- v }

func (c Chan[T]) Recv() T { return <-c.ch }

func (c Chan[T]) RecvCtx(ctx context.Context) (T, error) { return <-c.ch, ctx.Err() }
