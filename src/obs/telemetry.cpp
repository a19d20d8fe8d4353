#include "obs/telemetry.hpp"

#include "common/error.hpp"

namespace cudalign::obs {

namespace {

Json span_to_json(const Span& span) {
  Json node = Json::object();
  node.set("name", span.name);
  node.set("seconds", span.seconds);
  if (!span.children.empty()) {
    Json children = Json::array();
    for (const Span& child : span.children) children.push(span_to_json(child));
    node.set("children", std::move(children));
  }
  return node;
}

}  // namespace

void Telemetry::begin(std::string name) {
  Span& parent = stack_.empty() ? root_ : *stack_.back().span;
  parent.children.push_back(Span{std::move(name), 0, {}});
  stack_.push_back(Frame{&parent.children.back(), Clock::now()});
}

void Telemetry::end() {
  CUDALIGN_CHECK(!stack_.empty(), "Telemetry::end with no open span");
  const Frame frame = stack_.back();
  stack_.pop_back();
  frame.span->seconds = std::chrono::duration<double>(Clock::now() - frame.start).count();
}

void Telemetry::record(std::string name, double seconds) {
  Span& parent = stack_.empty() ? root_ : *stack_.back().span;
  parent.children.push_back(Span{std::move(name), seconds, {}});
}

const Span& Telemetry::finish() {
  while (!stack_.empty()) end();
  root_.seconds = std::chrono::duration<double>(Clock::now() - started_).count();
  return root_;
}

Json Telemetry::to_json() const { return span_to_json(root_); }

}  // namespace cudalign::obs
