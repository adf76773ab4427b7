"""Server workloads: nginx / vsftpd / openssh / exim analogues (§7.2.1).

Each is a connection-loop server compiled against ``libsim.so``:

- **nginx**: HTTP-ish — request-line parsing, a method dispatch through
  a function-pointer table (forward-edge surface), static file serving,
  access logging (write endpoints), and the paper's *artificially
  implanted vulnerability*: the POST handler trusts Content-Length and
  reads the body into a 64-byte stack buffer
  (:data:`NGINX_VULN_RET_OFFSET` bytes below the return address).
- **vsftpd**: FTP-ish command loop (USER/PASS/RETR/STOR/QUIT) with
  strcmp chains and file transfers.
- **openssh**: login check followed by a command dispatch through a
  handler table.
- **exim**: SMTP-ish state machine (HELO/MAIL/RCPT/DATA/QUIT) as a
  ``switch`` over the session state, spooling mail to a file.

Builders return the executable Module; ``*_session`` helpers produce
client payload bytes for drivers and fuzzers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Callable

from repro.binary.module import Module
from repro.workloads.libsim import libsim_program
from repro.lang import (
    AddrOf,
    Assign,
    BinOp,
    Break,
    Call,
    CallPtr,
    Const,
    Func,
    Global,
    If,
    Let,
    Load,
    LocalArray,
    Rel,
    Return,
    Store,
    Var,
    While,
)
from repro.osmodel.syscalls import O_CREAT, O_WRONLY

#: Distance from the POST body buffer to the saved return address in the
#: nginx analogue's handler frame: 64-byte buffer + two 8-byte parameter
#: slots + the saved frame pointer.  Verified by the attack tests.
NGINX_VULN_RET_OFFSET = 88
NGINX_VULN_BUF_SIZE = 64

_LIB_IMPORTS = [
    "exit", "read", "write", "open", "close", "socket", "bind", "listen",
    "accept", "recv", "send", "strlen", "strcmp", "strncmp", "strcpy",
    "memcpy", "memset", "atoi", "utoa", "read_line", "checksum", "malloc",
    "write_str", "puts", "gettimeofday", "unlink",
]


# ----------------------------------------------------------------------
# nginx
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_nginx() -> Module:
    prog = libsim_program("nginx", _LIB_IMPORTS)
    prog.add_string("s_get", "GET ")
    prog.add_string("s_post", "POST")
    prog.add_string("s_head", "HEAD")
    prog.add_string("resp_ok", "HTTP/1.1 200 OK\n\n")
    prog.add_string("resp_404", "HTTP/1.1 404 Not Found\n\n")
    prog.add_string("resp_400", "HTTP/1.1 400 Bad Request\n\n")
    prog.add_string("resp_created", "HTTP/1.1 201 Created\n\n")
    prog.add_string("log_path", "/var/log/nginx.access")

    # parse_method(line) -> 0 GET / 1 POST / 2 HEAD / -1.
    prog.add_func(
        Func(
            "parse_method",
            ["line"],
            [
                If(
                    Rel("==", Call("strncmp",
                                   [Var("line"), Global("s_get"), Const(4)]),
                        Const(0)),
                    [Return(Const(0))],
                ),
                If(
                    Rel("==", Call("strncmp",
                                   [Var("line"), Global("s_post"), Const(4)]),
                        Const(0)),
                    [Return(Const(1))],
                ),
                If(
                    Rel("==", Call("strncmp",
                                   [Var("line"), Global("s_head"), Const(4)]),
                        Const(0)),
                    [Return(Const(2))],
                ),
                Return(Const(-1)),
            ],
        )
    )

    # extract_path(line, out, maxlen): token after "METHOD " — bounded.
    prog.add_func(
        Func(
            "extract_path",
            ["line", "out", "maxlen"],
            [
                Let("i", Const(4)),
                # skip to first '/' within the method field
                While(
                    Rel("==", Load(BinOp("+", Var("line"), Var("i")),
                                   byte=True), Const(32)),
                    [Assign("i", BinOp("+", Var("i"), Const(1)))],
                ),
                Let("j", Const(0)),
                Let("c", Const(0)),
                While(
                    Rel("<", Var("j"), BinOp("-", Var("maxlen"), Const(1))),
                    [
                        Assign("c", Load(BinOp("+", Var("line"), Var("i")),
                                         byte=True)),
                        If(Rel("==", Var("c"), Const(32)), [Break()]),
                        If(Rel("==", Var("c"), Const(10)), [Break()]),
                        If(Rel("==", Var("c"), Const(0)), [Break()]),
                        Store(BinOp("+", Var("out"), Var("j")), Var("c"),
                              byte=True),
                        Assign("i", BinOp("+", Var("i"), Const(1))),
                        Assign("j", BinOp("+", Var("j"), Const(1))),
                    ],
                ),
                Store(BinOp("+", Var("out"), Var("j")), Const(0), byte=True),
                Return(Var("j")),
            ],
        )
    )

    prog.add_func(
        Func(
            "log_access",
            ["line"],
            [
                Let("fd", Call("open", [Global("log_path"),
                                        Const(O_CREAT | O_WRONLY)])),
                If(Rel("<", Var("fd"), Const(0)), [Return(Const(-1))]),
                Call("write", [Var("fd"), Var("line"),
                               Call("strlen", [Var("line")])]),
                Call("close", [Var("fd")]),
                Return(Const(0)),
            ],
        )
    )

    prog.add_func(
        Func(
            "handle_get",
            ["cfd", "line"],
            [
                LocalArray("path", 64),
                Call("extract_path", [Var("line"), AddrOf("path"),
                                      Const(64)]),
                Let("fd", Call("open", [AddrOf("path"), Const(0)])),
                If(
                    Rel("<", Var("fd"), Const(0)),
                    [
                        Call("send", [Var("cfd"), Global("resp_404"),
                                      Call("strlen",
                                           [Global("resp_404")])]),
                        Return(Const(404)),
                    ],
                ),
                Call("send", [Var("cfd"), Global("resp_ok"),
                              Call("strlen", [Global("resp_ok")])]),
                LocalArray("chunk", 512),
                Let("n", Const(1)),
                While(
                    Rel(">", Var("n"), Const(0)),
                    [
                        Assign("n", Call("read", [Var("fd"),
                                                  AddrOf("chunk"),
                                                  Const(512)])),
                        If(
                            Rel(">", Var("n"), Const(0)),
                            [Call("send", [Var("cfd"), AddrOf("chunk"),
                                           Var("n")])],
                        ),
                    ],
                ),
                Call("close", [Var("fd")]),
                Call("log_access", [Var("line")]),
                Return(Const(200)),
            ],
        )
    )

    # The implanted vulnerability (§7.1.2): Content-Length is trusted
    # and the body lands in a 64-byte stack buffer.
    prog.add_func(
        Func(
            "handle_post",
            ["cfd", "line"],
            [
                LocalArray("body", NGINX_VULN_BUF_SIZE),
                LocalArray("header", 64),
                Call("read_line", [Var("cfd"), AddrOf("header"), Const(64)]),
                Let("len", Call("atoi",
                                [BinOp("+", AddrOf("header"), Const(16))])),
                # BUG: no bound check against sizeof(body).
                Call("read", [Var("cfd"), AddrOf("body"), Var("len")]),
                Call("send", [Var("cfd"), Global("resp_created"),
                              Call("strlen", [Global("resp_created")])]),
                Call("log_access", [Var("line")]),
                Return(Const(201)),
            ],
        )
    )

    prog.add_func(
        Func(
            "handle_head",
            ["cfd", "line"],
            [
                Call("send", [Var("cfd"), Global("resp_ok"),
                              Call("strlen", [Global("resp_ok")])]),
                Return(Const(200)),
            ],
        )
    )

    prog.add_pointer_table(
        "method_handlers", ["handle_get", "handle_post", "handle_head"]
    )

    prog.add_func(
        Func(
            "handle_conn",
            ["cfd"],
            [
                LocalArray("reqline", 256),
                Let("n", Call("read_line", [Var("cfd"), AddrOf("reqline"),
                                            Const(256)])),
                If(Rel("<=", Var("n"), Const(0)), [Return(Const(-1))]),
                Let("method", Call("parse_method", [AddrOf("reqline")])),
                If(
                    Rel("<", Var("method"), Const(0)),
                    [
                        Call("send", [Var("cfd"), Global("resp_400"),
                                      Call("strlen",
                                           [Global("resp_400")])]),
                        Return(Const(400)),
                    ],
                ),
                # Forward-edge dispatch through the handler table.
                Let("table", Global("method_handlers")),
                Let("handler",
                    Load(BinOp("+", Var("table"),
                               BinOp("*", Var("method"), Const(8))))),
                Return(CallPtr(Var("handler"),
                               [Var("cfd"), AddrOf("reqline")])),
            ],
        )
    )

    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("lfd", Call("socket", [])),
                Call("bind", [Var("lfd")]),
                Call("listen", [Var("lfd")]),
                Let("served", Const(0)),
                Let("cfd", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("cfd", Call("accept", [Var("lfd")])),
                        If(Rel("<", Var("cfd"), Const(0)), [Break()]),
                        Call("handle_conn", [Var("cfd")]),
                        Call("close", [Var("cfd")]),
                        Assign("served", BinOp("+", Var("served"),
                                               Const(1))),
                    ],
                ),
                Return(Var("served")),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


def nginx_request(path: str = "/index.html", method: str = "GET",
                  body: bytes = b"") -> bytes:
    """One HTTP-ish request payload for the nginx analogue."""
    if method == "POST":
        header = f"POST {path} HTTP/1.0\n".encode()
        header += f"Content-Length: {len(body)}\n".encode()
        return header + body
    return f"{method} {path} HTTP/1.0\n".encode()


# ----------------------------------------------------------------------
# vsftpd
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_vsftpd() -> Module:
    prog = libsim_program("vsftpd", _LIB_IMPORTS)
    prog.add_string("c_user", "USER")
    prog.add_string("c_pass", "PASS")
    prog.add_string("c_retr", "RETR")
    prog.add_string("c_stor", "STOR")
    prog.add_string("c_quit", "QUIT")
    prog.add_string("r_220", "220 ftp ready\n")
    prog.add_string("r_230", "230 logged in\n")
    prog.add_string("r_331", "331 need password\n")
    prog.add_string("r_150", "150 opening transfer\n")
    prog.add_string("r_226", "226 transfer complete\n")
    prog.add_string("r_550", "550 not found\n")
    prog.add_string("r_500", "500 bad command\n")
    prog.add_string("r_221", "221 bye\n")

    prog.add_func(
        Func(
            "reply",
            ["cfd", "msg"],
            [Return(Call("send", [Var("cfd"), Var("msg"),
                                  Call("strlen", [Var("msg")])]))],
        )
    )

    prog.add_func(
        Func(
            "do_retr",
            ["cfd", "arg"],
            [
                Let("fd", Call("open", [Var("arg"), Const(0)])),
                If(Rel("<", Var("fd"), Const(0)),
                   [Call("reply", [Var("cfd"), Global("r_550")]),
                    Return(Const(-1))]),
                Call("reply", [Var("cfd"), Global("r_150")]),
                LocalArray("chunk", 512),
                Let("n", Const(1)),
                While(
                    Rel(">", Var("n"), Const(0)),
                    [
                        Assign("n", Call("read", [Var("fd"),
                                                  AddrOf("chunk"),
                                                  Const(512)])),
                        If(Rel(">", Var("n"), Const(0)),
                           [Call("send", [Var("cfd"), AddrOf("chunk"),
                                          Var("n")])]),
                    ],
                ),
                Call("close", [Var("fd")]),
                Call("reply", [Var("cfd"), Global("r_226")]),
                Return(Const(0)),
            ],
        )
    )

    prog.add_func(
        Func(
            "do_stor",
            ["cfd", "arg"],
            [
                Let("fd", Call("open", [Var("arg"),
                                        Const(O_CREAT | O_WRONLY)])),
                If(Rel("<", Var("fd"), Const(0)),
                   [Call("reply", [Var("cfd"), Global("r_550")]),
                    Return(Const(-1))]),
                Call("reply", [Var("cfd"), Global("r_150")]),
                LocalArray("chunk", 512),
                Let("n", Const(1)),
                While(
                    Rel(">", Var("n"), Const(0)),
                    [
                        Assign("n", Call("recv", [Var("cfd"),
                                                  AddrOf("chunk"),
                                                  Const(512)])),
                        If(Rel(">", Var("n"), Const(0)),
                           [Call("write", [Var("fd"), AddrOf("chunk"),
                                           Var("n")])]),
                    ],
                ),
                Call("close", [Var("fd")]),
                Call("reply", [Var("cfd"), Global("r_226")]),
                Return(Const(0)),
            ],
        )
    )

    prog.add_func(
        Func(
            "session",
            ["cfd"],
            [
                LocalArray("line", 128),
                Call("reply", [Var("cfd"), Global("r_220")]),
                Let("authed", Const(0)),
                Let("n", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("n", Call("read_line",
                                         [Var("cfd"), AddrOf("line"),
                                          Const(128)])),
                        If(Rel("<=", Var("n"), Const(0)), [Break()]),
                        # Strip the trailing newline so command
                        # arguments are usable as paths.
                        If(
                            Rel("==",
                                Load(BinOp("+", AddrOf("line"),
                                           BinOp("-", Var("n"), Const(1))),
                                     byte=True),
                                Const(10)),
                            [Store(BinOp("+", AddrOf("line"),
                                         BinOp("-", Var("n"), Const(1))),
                                   Const(0), byte=True)],
                        ),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"),
                                            Global("c_quit"), Const(4)]),
                                Const(0)),
                            [
                                Call("reply", [Var("cfd"), Global("r_221")]),
                                Break(),
                            ],
                        ),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"),
                                            Global("c_user"), Const(4)]),
                                Const(0)),
                            [Call("reply", [Var("cfd"), Global("r_331")])],
                            [
                                If(
                                    Rel("==",
                                        Call("strncmp",
                                             [AddrOf("line"),
                                              Global("c_pass"), Const(4)]),
                                        Const(0)),
                                    [
                                        Assign("authed", Const(1)),
                                        Call("reply", [Var("cfd"),
                                                       Global("r_230")]),
                                    ],
                                    [
                                        If(
                                            Rel("==", Var("authed"),
                                                Const(0)),
                                            [Call("reply",
                                                  [Var("cfd"),
                                                   Global("r_500")])],
                                            [
                                                If(
                                                    Rel("==",
                                                        Call("strncmp",
                                                             [AddrOf("line"),
                                                              Global("c_retr"),
                                                              Const(4)]),
                                                        Const(0)),
                                                    [Call("do_retr",
                                                          [Var("cfd"),
                                                           BinOp("+",
                                                                 AddrOf("line"),
                                                                 Const(5))])],
                                                    [
                                                        If(
                                                            Rel("==",
                                                                Call("strncmp",
                                                                     [AddrOf("line"),
                                                                      Global("c_stor"),
                                                                      Const(4)]),
                                                                Const(0)),
                                                            [Call("do_stor",
                                                                  [Var("cfd"),
                                                                   BinOp("+",
                                                                         AddrOf("line"),
                                                                         Const(5))])],
                                                            [Call("reply",
                                                                  [Var("cfd"),
                                                                   Global("r_500")])],
                                                        )
                                                    ],
                                                )
                                            ],
                                        )
                                    ],
                                )
                            ],
                        ),
                    ],
                ),
                Return(Const(0)),
            ],
        )
    )

    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("lfd", Call("socket", [])),
                Call("bind", [Var("lfd")]),
                Call("listen", [Var("lfd")]),
                Let("cfd", Const(0)),
                Let("served", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("cfd", Call("accept", [Var("lfd")])),
                        If(Rel("<", Var("cfd"), Const(0)), [Break()]),
                        Call("session", [Var("cfd")]),
                        Call("close", [Var("cfd")]),
                        Assign("served", BinOp("+", Var("served"),
                                               Const(1))),
                    ],
                ),
                Return(Var("served")),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


def vsftpd_session(files=("/srv/hello.txt",), store=False) -> bytes:
    """A USER/PASS/RETR…/QUIT session payload."""
    lines = ["USER demo", "PASS secret"]
    for path in files:
        lines.append(("STOR " if store else "RETR ") + path)
    lines.append("QUIT")
    return ("\n".join(lines) + "\n").encode()


# ----------------------------------------------------------------------
# openssh
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_openssh() -> Module:
    prog = libsim_program("openssh", _LIB_IMPORTS)
    prog.add_string("banner", "SSH-2.0-simssh\n")
    prog.add_string("good_user", "admin")
    prog.add_string("good_pass", "hunter2")
    prog.add_string("r_ok", "auth ok\n")
    prog.add_string("r_fail", "auth failed\n")
    prog.add_string("r_bye", "bye\n")
    prog.add_string("c_whoami", "whoami")
    prog.add_string("c_uptime", "uptime")
    prog.add_string("c_exit", "exit")
    prog.add_string("out_whoami", "admin\n")

    prog.add_func(
        Func(
            "cmd_whoami",
            ["cfd"],
            [Return(Call("send", [Var("cfd"), Global("out_whoami"),
                                  Call("strlen", [Global("out_whoami")])]))],
        )
    )
    prog.add_func(
        Func(
            "cmd_uptime",
            ["cfd"],
            [
                LocalArray("buf", 32),
                # Fixed-width output: four digits regardless of uptime,
                # like a column-formatted `uptime`.
                Let("t", BinOp("+",
                               BinOp("%", Call("gettimeofday", []),
                                     Const(9000)),
                               Const(1000))),
                Let("n", Call("utoa", [Var("t"), AddrOf("buf")])),
                Store(BinOp("+", AddrOf("buf"), Var("n")), Const(10),
                      byte=True),
                Return(Call("send", [Var("cfd"), AddrOf("buf"),
                                     BinOp("+", Var("n"), Const(1))])),
            ],
        )
    )

    prog.add_pointer_table("commands", ["cmd_whoami", "cmd_uptime"])

    prog.add_func(
        Func(
            "shell",
            ["cfd"],
            [
                LocalArray("line", 128),
                Let("n", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("n", Call("read_line",
                                         [Var("cfd"), AddrOf("line"),
                                          Const(128)])),
                        If(Rel("<=", Var("n"), Const(0)), [Break()]),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"),
                                            Global("c_exit"), Const(4)]),
                                Const(0)),
                            [
                                Call("send", [Var("cfd"), Global("r_bye"),
                                              Call("strlen",
                                                   [Global("r_bye")])]),
                                Break(),
                            ],
                        ),
                        Let("idx", Const(-1)),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"),
                                            Global("c_whoami"), Const(6)]),
                                Const(0)),
                            [Assign("idx", Const(0))],
                        ),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"),
                                            Global("c_uptime"), Const(6)]),
                                Const(0)),
                            [Assign("idx", Const(1))],
                        ),
                        If(
                            Rel(">=", Var("idx"), Const(0)),
                            [
                                Let("fp",
                                    Load(BinOp("+", Global("commands"),
                                               BinOp("*", Var("idx"),
                                                     Const(8))))),
                                CallPtr(Var("fp"), [Var("cfd")]),
                            ],
                        ),
                    ],
                ),
                Return(Const(0)),
            ],
        )
    )

    prog.add_func(
        Func(
            "session",
            ["cfd"],
            [
                LocalArray("user", 64),
                LocalArray("passwd", 64),
                Call("send", [Var("cfd"), Global("banner"),
                              Call("strlen", [Global("banner")])]),
                Call("read_line", [Var("cfd"), AddrOf("user"), Const(64)]),
                Call("read_line", [Var("cfd"), AddrOf("passwd"), Const(64)]),
                If(
                    Rel("!=", Call("strncmp", [AddrOf("user"),
                                               Global("good_user"),
                                               Const(5)]),
                        Const(0)),
                    [
                        Call("send", [Var("cfd"), Global("r_fail"),
                                      Call("strlen", [Global("r_fail")])]),
                        Return(Const(-1)),
                    ],
                ),
                If(
                    Rel("!=", Call("strncmp", [AddrOf("passwd"),
                                               Global("good_pass"),
                                               Const(7)]),
                        Const(0)),
                    [
                        Call("send", [Var("cfd"), Global("r_fail"),
                                      Call("strlen", [Global("r_fail")])]),
                        Return(Const(-1)),
                    ],
                ),
                Call("send", [Var("cfd"), Global("r_ok"),
                              Call("strlen", [Global("r_ok")])]),
                Return(Call("shell", [Var("cfd")])),
            ],
        )
    )

    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("lfd", Call("socket", [])),
                Call("bind", [Var("lfd")]),
                Call("listen", [Var("lfd")]),
                Let("cfd", Const(0)),
                Let("served", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("cfd", Call("accept", [Var("lfd")])),
                        If(Rel("<", Var("cfd"), Const(0)), [Break()]),
                        Call("session", [Var("cfd")]),
                        Call("close", [Var("cfd")]),
                        Assign("served", BinOp("+", Var("served"),
                                               Const(1))),
                    ],
                ),
                Return(Var("served")),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


def openssh_session(commands=("whoami", "uptime")) -> bytes:
    lines = ["admin", "hunter2"]
    lines.extend(commands)
    lines.append("exit")
    return ("\n".join(lines) + "\n").encode()


# ----------------------------------------------------------------------
# exim
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_exim() -> Module:
    prog = libsim_program("exim", _LIB_IMPORTS)
    prog.add_string("r_greet", "220 exim ready\n")
    prog.add_string("r_250", "250 ok\n")
    prog.add_string("r_354", "354 go ahead\n")
    prog.add_string("r_quit", "221 closing\n")
    prog.add_string("r_err", "503 bad sequence\n")
    prog.add_string("c_helo", "HELO")
    prog.add_string("c_mail", "MAIL")
    prog.add_string("c_rcpt", "RCPT")
    prog.add_string("c_data", "DATA")
    prog.add_string("c_quit", "QUIT")
    prog.add_string("c_dot", ".")
    prog.add_string("spool", "/var/spool/mail.out")

    # classify(line) -> 0 HELO / 1 MAIL / 2 RCPT / 3 DATA / 4 QUIT / -1.
    prog.add_func(
        Func(
            "classify",
            ["line"],
            [
                If(Rel("==", Call("strncmp", [Var("line"), Global("c_helo"),
                                              Const(4)]), Const(0)),
                   [Return(Const(0))]),
                If(Rel("==", Call("strncmp", [Var("line"), Global("c_mail"),
                                              Const(4)]), Const(0)),
                   [Return(Const(1))]),
                If(Rel("==", Call("strncmp", [Var("line"), Global("c_rcpt"),
                                              Const(4)]), Const(0)),
                   [Return(Const(2))]),
                If(Rel("==", Call("strncmp", [Var("line"), Global("c_data"),
                                              Const(4)]), Const(0)),
                   [Return(Const(3))]),
                If(Rel("==", Call("strncmp", [Var("line"), Global("c_quit"),
                                              Const(4)]), Const(0)),
                   [Return(Const(4))]),
                Return(Const(-1)),
            ],
        )
    )

    prog.add_func(
        Func(
            "spool_body",
            ["cfd"],
            [
                Let("fd", Call("open", [Global("spool"),
                                        Const(O_CREAT | O_WRONLY)])),
                LocalArray("line", 128),
                Let("n", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("n", Call("read_line",
                                         [Var("cfd"), AddrOf("line"),
                                          Const(128)])),
                        If(Rel("<=", Var("n"), Const(0)), [Break()]),
                        If(
                            Rel("==", Call("strncmp",
                                           [AddrOf("line"), Global("c_dot"),
                                            Const(1)]), Const(0)),
                            [Break()],
                        ),
                        Call("write", [Var("fd"), AddrOf("line"),
                                       Var("n")]),
                    ],
                ),
                Call("close", [Var("fd")]),
                Return(Const(0)),
            ],
        )
    )

    from repro.lang import Switch

    prog.add_func(
        Func(
            "session",
            ["cfd"],
            [
                LocalArray("line", 128),
                Call("send", [Var("cfd"), Global("r_greet"),
                              Call("strlen", [Global("r_greet")])]),
                Let("state", Const(0)),  # 0 start,1 helo,2 mail,3 rcpt
                Let("n", Const(0)),
                Let("cmd", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("n", Call("read_line",
                                         [Var("cfd"), AddrOf("line"),
                                          Const(128)])),
                        If(Rel("<=", Var("n"), Const(0)), [Break()]),
                        Assign("cmd", Call("classify", [AddrOf("line")])),
                        If(
                            Rel("==", Var("cmd"), Const(4)),
                            [
                                Call("send", [Var("cfd"), Global("r_quit"),
                                              Call("strlen",
                                                   [Global("r_quit")])]),
                                Break(),
                            ],
                        ),
                        Switch(
                            Var("cmd"),
                            {
                                0: [
                                    Assign("state", Const(1)),
                                    Call("send",
                                         [Var("cfd"), Global("r_250"),
                                          Call("strlen",
                                               [Global("r_250")])]),
                                ],
                                1: [
                                    If(
                                        Rel("<", Var("state"), Const(1)),
                                        [Call("send",
                                              [Var("cfd"), Global("r_err"),
                                               Call("strlen",
                                                    [Global("r_err")])])],
                                        [
                                            Assign("state", Const(2)),
                                            Call("send",
                                                 [Var("cfd"),
                                                  Global("r_250"),
                                                  Call("strlen",
                                                       [Global("r_250")])]),
                                        ],
                                    )
                                ],
                                2: [
                                    If(
                                        Rel("<", Var("state"), Const(2)),
                                        [Call("send",
                                              [Var("cfd"), Global("r_err"),
                                               Call("strlen",
                                                    [Global("r_err")])])],
                                        [
                                            Assign("state", Const(3)),
                                            Call("send",
                                                 [Var("cfd"),
                                                  Global("r_250"),
                                                  Call("strlen",
                                                       [Global("r_250")])]),
                                        ],
                                    )
                                ],
                                3: [
                                    If(
                                        Rel("<", Var("state"), Const(3)),
                                        [Call("send",
                                              [Var("cfd"), Global("r_err"),
                                               Call("strlen",
                                                    [Global("r_err")])])],
                                        [
                                            Call("send",
                                                 [Var("cfd"),
                                                  Global("r_354"),
                                                  Call("strlen",
                                                       [Global("r_354")])]),
                                            Call("spool_body",
                                                 [Var("cfd")]),
                                            Assign("state", Const(1)),
                                            Call("send",
                                                 [Var("cfd"),
                                                  Global("r_250"),
                                                  Call("strlen",
                                                       [Global("r_250")])]),
                                        ],
                                    )
                                ],
                            },
                            default=[
                                Call("send", [Var("cfd"), Global("r_err"),
                                              Call("strlen",
                                                   [Global("r_err")])])
                            ],
                        ),
                    ],
                ),
                Return(Const(0)),
            ],
        )
    )

    prog.add_func(
        Func(
            "main",
            [],
            [
                Let("lfd", Call("socket", [])),
                Call("bind", [Var("lfd")]),
                Call("listen", [Var("lfd")]),
                Let("cfd", Const(0)),
                Let("served", Const(0)),
                While(
                    Const(1),
                    [
                        Assign("cfd", Call("accept", [Var("lfd")])),
                        If(Rel("<", Var("cfd"), Const(0)), [Break()]),
                        Call("session", [Var("cfd")]),
                        Call("close", [Var("cfd")]),
                        Assign("served", BinOp("+", Var("served"),
                                               Const(1))),
                    ],
                ),
                Return(Var("served")),
            ],
        )
    )
    prog.set_entry("main")
    return prog.build()


def exim_session(rcpts=1) -> bytes:
    lines = ["HELO client", "MAIL FROM:<a@b>"]
    for index in range(rcpts):
        lines.append(f"RCPT TO:<user{index}@dest>")
    lines.append("DATA")
    lines.extend(("hello", "world"))
    lines.append(".")
    lines.append("QUIT")
    return ("\n".join(lines) + "\n").encode()


SERVER_BUILDERS: Dict[str, Callable[[], Module]] = {
    "nginx": build_nginx,
    "vsftpd": build_vsftpd,
    "openssh": build_openssh,
    "exim": build_exim,
}
