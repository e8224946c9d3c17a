// R15 fixture: an exempt session driver plus decoys that are not a second
// client I/O loop.
ClientStep replay(ClientSession& session, const Bytes& reply) {
  // R15-exempt: wire-format probe feeding one canned reply.
  return session.on_reply(reply, 0);
}
void retry(Queue& queue) {
  resend(queue);  // a free function, not the session's member
  const char* doc = "session.resend() is the loop's job";
}
