/**
 * @file
 * Unit tests for the Registry template every experiment axis
 * (systems, workloads, scheduling, routing, eviction) is built on,
 * exercised through a toy product.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/registry.hh"

namespace duplex
{
namespace
{

struct Toy
{
    std::string tag;
    int value = 0;
};

using ToyRegistry = Registry<Toy, const std::string &, int>;

ToyRegistry::Factory
toyFactory()
{
    return [](const std::string &tag, int value) {
        return std::make_unique<Toy>(Toy{tag, value});
    };
}

ToyRegistry
threeToys()
{
    ToyRegistry registry("toy");
    registry.add("zeta", "Zeta", "last", toyFactory());
    registry.add("alpha", "Alpha", "first", toyFactory());
    registry.add("mid", "middle", toyFactory());
    return registry;
}

TEST(RegistryTemplate, IdsAreSortedRegardlessOfRegistrationOrder)
{
    const ToyRegistry registry = threeToys();
    EXPECT_EQ(registry.ids(),
              (std::vector<std::string>{"alpha", "mid", "zeta"}));
    EXPECT_TRUE(registry.contains("mid"));
    EXPECT_FALSE(registry.contains("nope"));
}

TEST(RegistryTemplate, KeepsDisplayNameAndSummary)
{
    const ToyRegistry registry = threeToys();
    EXPECT_EQ(registry.displayName("alpha"), "Alpha");
    EXPECT_EQ(registry.summary("alpha"), "first");
    // The three-argument add names an entry by its id.
    EXPECT_EQ(registry.displayName("mid"), "mid");
    EXPECT_EQ(registry.summary("mid"), "middle");
}

TEST(RegistryTemplate, DuplicateIdIsFatal)
{
    EXPECT_EXIT(
        {
            ToyRegistry registry = threeToys();
            registry.add("mid", "again", toyFactory());
        },
        ::testing::ExitedWithCode(1), "duplicate toy id 'mid'");
}

TEST(RegistryTemplate, NullFactoryIsFatal)
{
    EXPECT_EXIT(
        {
            ToyRegistry registry("toy");
            registry.add("empty", "no factory", nullptr);
        },
        ::testing::ExitedWithCode(1), "null factory for toy 'empty'");
}

TEST(RegistryTemplate, UnknownIdIsFatalAndListsKnownIdsSorted)
{
    EXPECT_EXIT({ threeToys().make("nope", "x", 1); },
                ::testing::ExitedWithCode(1),
                "unknown toy 'nope' .known: alpha, mid, zeta.");
    EXPECT_EXIT({ threeToys().displayName("nope"); },
                ::testing::ExitedWithCode(1), "unknown toy 'nope'");
}

TEST(RegistryTemplate, MakeForwardsItsArguments)
{
    const ToyRegistry registry = threeToys();
    const std::unique_ptr<Toy> toy = registry.make("zeta", "hello", 42);
    ASSERT_NE(toy, nullptr);
    EXPECT_EQ(toy->tag, "hello");
    EXPECT_EQ(toy->value, 42);
    // Every make builds a fresh product.
    EXPECT_NE(registry.make("zeta", "hello", 42), toy);

    // Move-only arguments are forwarded, not copied.
    Registry<Toy, std::unique_ptr<int>> owning("toy");
    owning.add("boxed", "takes ownership",
               [](std::unique_ptr<int> v) {
                   return std::make_unique<Toy>(Toy{"boxed", *v});
               });
    EXPECT_EQ(owning.make("boxed", std::make_unique<int>(7))->value,
              7);
}

} // namespace
} // namespace duplex
