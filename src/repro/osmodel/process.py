"""Process model: address space, file descriptors, signal state."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.binary.loader import Image
from repro.cpu.executor import Executor
from repro.cpu.machine import Machine

STACK_TOP = 0x7FFFFF000000
STACK_SIZE = 0x40000  # 256 KiB
HEAP_BASE = 0x10000000
MMAP_BASE = 0x30000000


class ProcessState(enum.Enum):
    RUNNABLE = "runnable"
    EXITED = "exited"
    KILLED = "killed"


@dataclass
class Connection:
    """A socket connection endpoint as seen by the server."""

    inbound: bytearray = field(default_factory=bytearray)
    outbound: bytearray = field(default_factory=bytearray)
    closed: bool = False

    @classmethod
    def from_request(cls, payload: bytes) -> "Connection":
        """A connection whose client has already sent ``payload``."""
        return cls(inbound=bytearray(payload))


class FDKind(enum.Enum):
    STDIN = "stdin"
    STDOUT = "stdout"
    FILE = "file"
    LISTEN = "listen"
    CONN = "conn"


@dataclass
class FileDescriptor:
    kind: FDKind
    path: Optional[str] = None
    pos: int = 0
    writable: bool = False
    conn: Optional[Connection] = None


@dataclass
class Process:
    """One user process: image + machine + kernel-visible state."""

    pid: int
    name: str
    image: Image
    machine: Machine
    executor: Executor
    cr3: int
    parent_pid: Optional[int] = None
    state: ProcessState = ProcessState.RUNNABLE
    exit_code: int = 0
    killed_by: Optional[int] = None
    fault: Optional[str] = None
    traced: bool = False

    fds: Dict[int, FileDescriptor] = field(default_factory=dict)
    next_fd: int = 3
    stdin_buffer: bytearray = field(default_factory=bytearray)
    stdout: bytearray = field(default_factory=bytearray)
    pending_connections: List[Connection] = field(default_factory=list)
    accepted_connections: List[Connection] = field(default_factory=list)
    signal_handlers: Dict[int, int] = field(default_factory=dict)
    children: List[int] = field(default_factory=list)

    heap_brk: int = HEAP_BASE
    mmap_next: int = MMAP_BASE

    def __post_init__(self) -> None:
        if not self.fds:
            self.fds[0] = FileDescriptor(FDKind.STDIN)
            self.fds[1] = FileDescriptor(FDKind.STDOUT, writable=True)
            self.fds[2] = FileDescriptor(FDKind.STDOUT, writable=True)

    @property
    def alive(self) -> bool:
        return self.state is ProcessState.RUNNABLE

    def allocate_fd(self, fd: FileDescriptor) -> int:
        number = self.next_fd
        self.next_fd += 1
        self.fds[number] = fd
        return number

    def feed_stdin(self, data: bytes) -> None:
        """Queue bytes for the process to read from fd 0."""
        self.stdin_buffer.extend(data)

    def push_connection(self, payload: bytes) -> Connection:
        """Queue an inbound client connection carrying ``payload``."""
        conn = Connection.from_request(payload)
        self.pending_connections.append(conn)
        return conn
