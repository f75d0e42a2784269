// The tool-support utilities: JSON emission, command-line parsing, and
// model-name parsing.

#include <gtest/gtest.h>

#include "models/model_id.hpp"
#include "util/args.hpp"
#include "util/json.hpp"

namespace {

using namespace omniboost;
using util::ArgParser;
using util::Json;

// --- Json -------------------------------------------------------------------

TEST(Json, Scalars) {
  EXPECT_EQ(Json::null().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::number(42.0).dump(), "42");
  EXPECT_EQ(Json::number(2.5).dump(), "2.5");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersRejected) {
  EXPECT_THROW(Json::number(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(Json::number(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(Json, Escaping) {
  EXPECT_EQ(Json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(Json::escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(Json::escape("tab\there"), "tab\\there");
  EXPECT_EQ(Json::escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(Json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, CompactContainers) {
  Json arr = Json::array();
  arr.push_back(Json::number(1.0));
  arr.push_back(Json::string("two"));
  EXPECT_EQ(arr.dump(), "[1,\"two\"]");

  Json obj = Json::object();
  obj.set("a", Json::number(1.0));
  obj.set("b", Json::boolean(false));
  EXPECT_EQ(obj.dump(), "{\"a\":1,\"b\":false}");
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

TEST(Json, KeyOverwriteKeepsPosition) {
  Json obj = Json::object();
  obj.set("x", Json::number(1.0));
  obj.set("y", Json::number(2.0));
  obj.set("x", Json::number(9.0));
  EXPECT_EQ(obj.dump(), "{\"x\":9,\"y\":2}");
  EXPECT_EQ(obj.size(), 2u);
}

TEST(Json, PrettyPrintIndents) {
  Json obj = Json::object();
  obj.set("k", Json::number(1.0));
  EXPECT_EQ(obj.dump(2), "{\n  \"k\": 1\n}");
}

TEST(Json, TypeMisuseThrows) {
  Json n = Json::number(3.0);
  EXPECT_THROW(n.push_back(Json::null()), std::logic_error);
  EXPECT_THROW(n.set("k", Json::null()), std::logic_error);
  EXPECT_THROW(n.size(), std::logic_error);
}

TEST(Json, NestedStructureRoundTrips) {
  Json root = Json::object();
  Json inner = Json::array();
  Json leaf = Json::object();
  leaf.set("name", Json::string("GPU"));
  leaf.set("util", Json::number(0.97));
  inner.push_back(std::move(leaf));
  root.set("components", std::move(inner));
  EXPECT_EQ(root.dump(),
            "{\"components\":[{\"name\":\"GPU\",\"util\":0.96999999999999997}]}");
}

// --- ArgParser ----------------------------------------------------------------

ArgParser make_parser() {
  ArgParser p("tool", "test parser");
  p.option("mix", "the mix")
      .option("budget", "search budget", "500")
      .flag("json", "json output");
  return p;
}

bool parse(ArgParser& p, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tool");
  return p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, ValuesAndDefaults) {
  ArgParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--mix", "a,b"}));
  EXPECT_EQ(p.get("mix"), "a,b");
  EXPECT_EQ(p.get_int("budget"), 500);  // default
  EXPECT_FALSE(p.get_flag("json"));
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--mix=x", "--budget=7"}));
  EXPECT_EQ(p.get("mix"), "x");
  EXPECT_EQ(p.get_int("budget"), 7);
}

TEST(ArgParser, FlagsAndRepeatsLastWins) {
  ArgParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--mix", "a", "--json", "--mix", "b"}));
  EXPECT_TRUE(p.get_flag("json"));
  EXPECT_EQ(p.get("mix"), "b");
}

TEST(ArgParser, ErrorsAreInvalidArgument) {
  {
    ArgParser p = make_parser();
    EXPECT_THROW(parse(p, {"--unknown", "1"}), std::invalid_argument);
  }
  {
    ArgParser p = make_parser();
    EXPECT_THROW(parse(p, {"--mix"}), std::invalid_argument);  // missing value
  }
  {
    ArgParser p = make_parser();
    EXPECT_THROW(parse(p, {"positional"}), std::invalid_argument);
  }
  {
    ArgParser p = make_parser();
    EXPECT_THROW(parse(p, {"--json=true"}), std::invalid_argument);
  }
}

TEST(ArgParser, MissingRequiredThrowsAtAccess) {
  ArgParser p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("mix"), std::invalid_argument);
}

TEST(ArgParser, TypedAccessorsValidate) {
  ArgParser p = make_parser();
  ASSERT_TRUE(parse(p, {"--mix", "abc", "--budget", "12x"}));
  EXPECT_THROW(p.get_int("budget"), std::invalid_argument);
  EXPECT_THROW(p.get_double("budget"), std::invalid_argument);
  // Non-finite numbers parse, but no flag accepts them.
  for (const char* v : {"nan", "inf", "-inf"}) {
    ArgParser q = make_parser();
    ASSERT_TRUE(parse(q, {"--budget", v}));
    EXPECT_THROW(q.get_double("budget"), std::invalid_argument) << v;
  }
}

TEST(ArgParser, HelpShortCircuits) {
  ArgParser p = make_parser();
  testing::internal::CaptureStdout();
  const bool proceed = parse(p, {"--help"});
  const std::string help = testing::internal::GetCapturedStdout();
  EXPECT_FALSE(proceed);
  EXPECT_NE(help.find("--mix"), std::string::npos);
  EXPECT_NE(help.find("default: 500"), std::string::npos);
}

TEST(ArgParser, UndeclaredAccessIsLogicError) {
  ArgParser p = make_parser();
  ASSERT_TRUE(parse(p, {}));
  EXPECT_THROW(p.get("nope"), std::logic_error);
  EXPECT_THROW(p.get_flag("mix"), std::logic_error);  // not a flag
}

// --- parse_model_name ---------------------------------------------------------

TEST(ParseModelName, RoundTripsAllCanonicalNames) {
  for (const models::ModelId id : models::kAllModels) {
    models::ModelId out;
    ASSERT_TRUE(models::parse_model_name(models::model_name(id), out))
        << models::model_name(id);
    EXPECT_EQ(out, id);
  }
}

TEST(ParseModelName, ToleratesCaseAndDashes) {
  models::ModelId out;
  EXPECT_TRUE(models::parse_model_name("resnet50", out));
  EXPECT_EQ(out, models::ModelId::kResNet50);
  EXPECT_TRUE(models::parse_model_name("VGG19", out));
  EXPECT_EQ(out, models::ModelId::kVgg19);
  EXPECT_TRUE(models::parse_model_name("inception_v4", out));
  EXPECT_EQ(out, models::ModelId::kInceptionV4);
  EXPECT_TRUE(models::parse_model_name("ALEXNET", out));
  EXPECT_EQ(out, models::ModelId::kAlexNet);
}

TEST(ParseModelName, RejectsUnknown) {
  models::ModelId out;
  EXPECT_FALSE(models::parse_model_name("resnet18", out));
  EXPECT_FALSE(models::parse_model_name("", out));
  EXPECT_FALSE(models::parse_model_name("vgg", out));
}

}  // namespace
