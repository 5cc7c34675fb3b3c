//go:build !unix

package transport

import "net"

// sockWriter is unix-only; elsewhere a client's leader writes with
// conn.Write, as a server's does.
type sockWriter struct{}

func newSockWriter(net.Conn) *sockWriter      { return nil }
func (*sockWriter) write([]byte) (int, error) { return 0, nil }
