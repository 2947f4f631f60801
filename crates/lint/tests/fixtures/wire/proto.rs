//~ ERROR RequestRef::Flush
// Wire-protocol fixture: the source of truth the other files must
// agree with. Seeded drift: the borrowed view forgot Flush and
// invents Peek.
pub const OP_PING: u8 = 0x01;
pub const OP_FLUSH: u8 = 0x02;
pub const OP_OK: u8 = 0x80;

/// Requests.
pub enum Request {
    Ping,
    Flush { hard: bool },
}

/// The borrowed request view.
pub enum RequestRef<'a> {
    Ping,
    Peek(&'a [u8]),
}

/// Responses.
pub enum Response {
    Ok,
    Value(u64),
}

/// Error codes.
pub enum ErrorCode {
    BadFrame = 1,
    Io = 2,
}
