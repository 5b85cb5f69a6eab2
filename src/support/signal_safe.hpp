// Async-signal-safe building blocks for the crash-dump path.
//
// Everything here is callable from a signal handler: no allocation, no
// locks, no stdio, no errno-preserving surprises — only direct syscalls
// (open/write/close) and pure buffer arithmetic. POSIX guarantees
// open(2)/write(2)/close(2) are async-signal-safe; the formatters below
// touch caller-provided stack buffers only.
//
// These helpers exist so obs/flight.cpp's SIGSEGV/SIGABRT/SIGBUS handler
// can serialize the flight-recorder rings without calling anything that
// might itself deadlock on the lock the crashing thread holds.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfcp::support {

/// Renders `value` in decimal into `buf` (no NUL). Returns the number of
/// bytes written, 0 when `cap` is too small for the full number (nothing
/// partial is ever emitted).
std::size_t format_u64_decimal(char* buf, std::size_t cap,
                               std::uint64_t value) noexcept;

/// Signed variant: renders `value` (including INT64_MIN, whose
/// magnitude does not fit in int64_t) with a leading '-' when negative.
/// Returns bytes written, 0 when `cap` cannot hold the full rendering.
std::size_t format_i64_decimal(char* buf, std::size_t cap,
                               std::int64_t value) noexcept;

/// Renders `value` as exactly 16 lower-case hex digits (no NUL, no "0x").
/// Returns 16, or 0 when `cap` < 16.
std::size_t format_u64_hex(char* buf, std::size_t cap,
                           std::uint64_t value) noexcept;

/// Appends the NUL-terminated string `text` at `buf + pos` without
/// overflowing `cap`. Returns the new position (== old position when the
/// string does not fit; never partial).
std::size_t append_literal(char* buf, std::size_t cap, std::size_t pos,
                           const char* text) noexcept;

/// write(2) until every byte is out, retrying EINTR and short writes.
/// Returns false on any other error or on fd < 0. Also the storage
/// layer's one write loop (WAL frames, journal chunk lines and footers).
bool write_all_fd(int fd, const void* data, std::size_t len) noexcept;

/// open(2) with O_WRONLY|O_CREAT|O_TRUNC, mode 0644. Returns -1 on error.
/// Safe to call from a signal handler.
int open_trunc_fd(const char* path) noexcept;

/// close(2), ignoring errors. Safe in a signal handler; no-op on fd < 0.
void close_fd(int fd) noexcept;

}  // namespace mfcp::support
