// R15 fixture: a second I/O loop feeding a ClientSession its replies.
void drive(ClientSession& session, Connection& conn) {
  ClientStep step = session.start();
  while (step.kind == ClientStep::Kind::kSend) {
    step = session.on_reply(conn.call(step.frame), steady_now_ms());
  }
}
