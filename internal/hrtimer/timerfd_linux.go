package hrtimer

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// Not in package syscall: <linux/time.h> and <sys/timerfd.h>.
const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// timerfdSource sleeps on a timerfd read through the netpoller. The
// descriptor is non-blocking, so os.NewFile registers it with the runtime's
// epoll instance and Read parks the goroutine there: when every P is idle,
// it is the kernel's hrtimer making the descriptor readable that ends
// epoll_wait, not epoll_wait's own millisecond timeout.
type timerfdSource struct {
	f  *os.File
	fd uintptr // f's descriptor; f.Fd() would put it back into blocking mode
}

// newSource returns the timerfd source, or the runtime-timer one when the
// kernel refuses a timerfd.
func newSource() source {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return newRuntimeSource()
	}
	return &timerfdSource{os.NewFile(fd, "timerfd"), fd}
}

// arm sets the descriptor to expire once, d from now; zero disarms it.
// timerfd_settime cannot fail on a descriptor timerfd_create returned and a
// normalized timespec, and a failure could only be reported by a missed
// deadline anyway.
func (s *timerfdSource) arm(d time.Duration) {
	spec := [2]syscall.Timespec{1: syscall.NsecToTimespec(int64(d))} // {interval, value}
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, s.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

func (s *timerfdSource) disarm() { s.arm(0) }

// wait reads the expiry count, which blocks (in the netpoller) until the
// armed time has passed. Re-arming between expiry and read resets the count,
// and the read then simply keeps waiting for the new time.
func (s *timerfdSource) wait() error {
	var count [8]byte
	_, err := s.f.Read(count[:])
	return err
}
