//go:build unix

package transport

import (
	"net"
	"syscall"
)

// sockWriter makes one non-blocking write(2) on a socket through its
// RawConn (Go keeps socket descriptors non-blocking). Its callback is built
// once, so a write allocates nothing; a frameWriter's leader is its only
// user at any time.
type sockWriter struct {
	rc  syscall.RawConn
	fn  func(fd uintptr) bool
	buf []byte
	n   int
	err error
}

// newSockWriter returns conn's sockWriter, nil if conn is not a socket.
func newSockWriter(conn net.Conn) *sockWriter {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return nil
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nil
	}
	s := &sockWriter{rc: rc}
	s.fn = func(fd uintptr) bool {
		s.n, s.err = syscall.Write(int(fd), s.buf)
		return true // one attempt: never wait for the socket to drain
	}
	return s
}

// write writes what the socket takes now and reports how much that was; a
// full socket takes nothing and is no error.
func (s *sockWriter) write(buf []byte) (int, error) {
	s.buf = buf
	err := s.rc.Write(s.fn)
	s.buf = nil
	if err == nil && s.err != syscall.EAGAIN && s.err != syscall.EINTR {
		return max(s.n, 0), s.err
	}
	return 0, err
}
